package baseline

import (
	"math"
	"sort"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/partition"
	"repro/internal/roadnet"
)

// TShareTemporal is the structurally faithful variant of Ma et al.'s
// T-Share: a *spatio-temporal* grid index — for each grid cell, the list
// of taxis currently in it or arriving within the horizon, sorted by
// arrival time — and a dual-side search that intersects the origin-side
// candidates (taxis that can reach the origin cell before the pickup
// deadline) with the destination-side candidates (taxis expected near the
// destination before the delivery deadline). The first candidate with a
// valid schedule insertion is selected, not the best one.
type TShareTemporal struct {
	*base
	grid   *partition.Partitioning
	tindex *index.PartitionIndex

	lastPart map[int64]partition.ID
	spx      *roadnet.SpatialIndex
}

// NewTShare creates the T-Share baseline. The temporal grid uses cells of
// roughly cfg.GridCellMeters; its horizon covers the pickup windows that
// matter (entries beyond a requester's pickup deadline are filtered at
// query time, so a longer horizon only lengthens the lists).
func NewTShareTemporal(router *roadnet.Router, cfg Config) *TShareTemporal {
	g := router.Graph()
	min, max := g.Bounds()
	// Cell count from the bounding box area and the configured cell size.
	widthM := distMeters(g, min.Lat, min.Lng, min.Lat, max.Lng)
	heightM := distMeters(g, min.Lat, min.Lng, max.Lat, min.Lng)
	cells := int(widthM*heightM/(cfg.GridCellMeters*cfg.GridCellMeters)) + 1
	if cells < 4 {
		cells = 4
	}
	grid, err := partition.BuildGrid(g, nil, cells)
	if err != nil {
		// BuildGrid only fails on empty graphs, which NewTShare's callers
		// never pass; keep the constructor signature simple.
		panic(err)
	}
	spx := roadnet.NewSpatialIndex(g, cfg.GridCellMeters)
	grid.IndexCells(spx)
	return &TShareTemporal{
		base:     newBase(router, cfg),
		grid:     grid,
		tindex:   index.NewPartitionIndex(grid, 900),
		lastPart: make(map[int64]partition.ID),
		spx:      spx,
	}
}

func distMeters(g *roadnet.Graph, lat1, lng1, lat2, lng2 float64) float64 {
	const mLat = 111195.0
	dLat := (lat2 - lat1) * mLat
	dLng := (lng2 - lng1) * mLat * math.Cos(lat1*math.Pi/180)
	return math.Sqrt(dLat*dLat + dLng*dLng)
}

// Name identifies the scheme in reports.
func (s *TShareTemporal) Name() string { return "T-Share-temporal" }

// AddTaxi registers a taxi in the location grid and the temporal index.
func (s *TShareTemporal) AddTaxi(t *fleet.Taxi, nowSeconds float64) {
	s.base.AddTaxi(t, nowSeconds)
	s.reindex(t, nowSeconds)
}

func (s *TShareTemporal) reindex(t *fleet.Taxi, nowSeconds float64) {
	s.tindex.Update(t.ID, t.At(), t.Route(), nowSeconds, s.cfg.SpeedMps)
	s.lastPart[t.ID] = s.grid.PartitionOf(t.At())
}

// OnTaxiAdvanced refreshes the indexes when the taxi crossed a cell border
// (entries computed at plan time stay valid while the plan is followed).
func (s *TShareTemporal) OnTaxiAdvanced(t *fleet.Taxi, nowSeconds float64) {
	s.base.OnTaxiAdvanced(t, nowSeconds)
	if s.lastPart[t.ID] != s.grid.PartitionOf(t.At()) {
		s.reindex(t, nowSeconds)
	}
}

// OnRequest performs the dual-side spatio-temporal search and takes the
// first feasible insertion.
func (s *TShareTemporal) OnRequest(req *fleet.Request, nowSeconds float64) Result {
	res := Result{}
	pickupDL := req.PickupDeadline(s.cfg.SpeedMps).Seconds()
	deliveryDL := req.Deadline.Seconds()
	if pickupDL <= nowSeconds {
		return res
	}
	// Destination side: taxis expected near the destination before the
	// delivery deadline. Built lazily — vacant taxis qualify from the
	// origin side alone, so many requests never need it. The origin side
	// is searched cell by cell, expanding outward, and stops at the first
	// valid candidate — the lazy expansion that makes T-Share's search
	// cheap and its candidate sets small (Table III).
	var destSet map[int64]bool
	destSide := func() map[int64]bool {
		if destSet != nil {
			return destSet
		}
		destSet = make(map[int64]bool)
		for _, cell := range s.grid.PartitionsNear(s.spx, req.DestPt, s.cfg.SearchRangeMeters) {
			for _, e := range s.tindex.Taxis(cell) {
				if e.ArrivalSeconds <= deliveryDL {
					destSet[e.TaxiID] = true
				}
			}
		}
		return destSet
	}
	cells := s.grid.PartitionsNear(s.spx, req.OriginPt, s.cfg.SearchRangeMeters)
	sort.Slice(cells, func(i, j int) bool {
		return geo.Equirect(s.grid.Center(cells[i]), req.OriginPt) <
			geo.Equirect(s.grid.Center(cells[j]), req.OriginPt)
	})
	seen := make(map[int64]bool)
	for _, cell := range cells {
		for _, entry := range s.tindex.Taxis(cell) {
			if entry.ArrivalSeconds > pickupDL || seen[entry.TaxiID] {
				continue
			}
			seen[entry.TaxiID] = true
			t, ok := s.taxiByID(entry.TaxiID)
			if !ok {
				continue
			}
			// Dual-side rule: vacant taxis qualify from the origin side
			// alone; occupied taxis must also appear on the destination
			// side.
			if !t.Empty() && !destSide()[t.ID] {
				continue
			}
			if t.IdleSeats() < req.Passengers {
				continue
			}
			res.Candidates++
			events, _, ok := s.insertable(t, req, nowSeconds, true)
			if !ok {
				continue
			}
			if s.commit(t, events, nowSeconds) {
				s.reindex(t, nowSeconds)
				res.TaxiID = t.ID
				res.Served = true
				return res
			}
		}
	}
	return res
}

// TryServeOffline inserts on encounter (first valid), keeping the
// temporal index fresh.
func (s *TShareTemporal) TryServeOffline(t *fleet.Taxi, req *fleet.Request, nowSeconds float64) bool {
	if !s.base.TryServeOffline(t, req, nowSeconds) {
		return false
	}
	s.reindex(t, nowSeconds)
	return true
}

// IndexMemoryBytes includes the temporal index (Table IV).
func (s *TShareTemporal) IndexMemoryBytes() int64 {
	return s.base.IndexMemoryBytes() + s.tindex.Stats().MemoryBytes + s.grid.MemoryBytes()
}
