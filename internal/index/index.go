// Package index provides the taxi index structures of §IV-B3: the
// map-partition index, which records for each partition the taxis that are
// in it or will arrive within a time horizon T_mp as a list kept sorted by
// arrival time, and a plain location grid over taxi positions, which is the
// indexing used by the T-Share and pGreedyDP baselines.
package index

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/roadnet"
)

// Entry is one taxi's presence in a partition list: the taxi and its
// arrival time at that partition (the current time for taxis already
// inside).
type Entry struct {
	TaxiID         int64
	ArrivalSeconds float64
}

// compare is the list order: ascending arrival (the paper's ordering), ties
// by taxi ID for determinism.
func (e Entry) compare(o Entry) int {
	if c := cmp.Compare(e.ArrivalSeconds, o.ArrivalSeconds); c != 0 {
		return c
	}
	return cmp.Compare(e.TaxiID, o.TaxiID)
}

// PartitionIndex maintains, per partition, the taxis now in or arriving
// within the horizon, with arrival times derived from each taxi's planned
// route. It is safe for concurrent use.
type PartitionIndex struct {
	pt      *partition.Partitioning
	horizon float64 // seconds

	mu      sync.RWMutex
	byPart  [][]Entry       // partition -> its list P_z.L_t, strictly ascending by compare
	byTaxi  map[int64][]Row // taxi -> its rows, ascending by partition
	entries int

	// Optional registry instruments (see InstrumentWith).
	updates      *obs.Counter
	entriesGauge *obs.Gauge
	taxisGauge   *obs.Gauge
}

// InstrumentWith registers the index's instruments in reg
// (mtshare_index_updates_total, mtshare_index_partition_entries,
// mtshare_index_indexed_taxis) and returns the index. Call it once,
// before concurrent use.
func (ix *PartitionIndex) InstrumentWith(reg *obs.Registry) *PartitionIndex {
	if reg == nil {
		return ix
	}
	ix.updates = reg.Counter("mtshare_index_updates_total")
	ix.entriesGauge = reg.Gauge("mtshare_index_partition_entries")
	ix.taxisGauge = reg.Gauge("mtshare_index_indexed_taxis")
	return ix
}

// NewPartitionIndex creates an index over the given partitioning with the
// horizon T_mp (the paper uses 1 h).
func NewPartitionIndex(pt *partition.Partitioning, horizonSeconds float64) *PartitionIndex {
	return &PartitionIndex{
		pt:      pt,
		horizon: horizonSeconds,
		byPart:  make([][]Entry, pt.NumPartitions()),
		byTaxi:  make(map[int64][]Row),
	}
}

// findRow returns where partition p is, or would be inserted, in rows.
func findRow(rows []Row, p partition.ID) (int, bool) {
	return slices.BinarySearchFunc(rows, p, func(r Row, p partition.ID) int { return cmp.Compare(r.Partition, p) })
}

// Update re-indexes one taxi from its remaining planned route. route is
// the polyline starting at the taxi's current position (may be nil for an
// idle taxi, which is indexed in its current partition only); nowSeconds
// is the current time and speedMps converts route meters to arrival times.
// Arrivals beyond the horizon are not indexed.
func (ix *PartitionIndex) Update(taxiID int64, at roadnet.VertexID, route []roadnet.VertexID, nowSeconds, speedMps float64) {
	var buf [16]Row // a route rarely crosses more partitions within the horizon
	last := ix.pt.PartitionOf(at)
	rows := append(buf[:0], Row{Partition: last, ArrivalSeconds: nowSeconds})
	if speedMps > 0 {
		g := ix.pt.Graph()
		meters := 0.0
		for i := 0; i+1 < len(route); i++ {
			c, ok := g.EdgeCost(route[i], route[i+1])
			if !ok {
				break
			}
			meters += c
			t := nowSeconds + meters/speedMps
			if t > nowSeconds+ix.horizon {
				break
			}
			p := ix.pt.PartitionOf(route[i+1])
			if p == last {
				continue
			}
			last = p
			if i, seen := findRow(rows, p); !seen { // the first arrival stands
				rows = slices.Insert(rows, i, Row{Partition: p, ArrivalSeconds: t})
			}
		}
	}
	ix.mu.Lock()
	ix.installLocked(taxiID, rows)
	entries, taxis := ix.entries, len(ix.byTaxi)
	ix.mu.Unlock()
	if ix.updates != nil {
		ix.updates.Inc()
		ix.entriesGauge.Set(float64(entries))
		ix.taxisGauge.Set(float64(taxis))
	}
}

// installLocked replaces the taxi's rows (ascending by partition) and its
// entry in each partition list, reusing the taxi's row storage.
func (ix *PartitionIndex) installLocked(taxiID int64, rows []Row) {
	old := ix.unlistLocked(taxiID)
	for _, r := range rows {
		l, e := ix.byPart[r.Partition], Entry{TaxiID: taxiID, ArrivalSeconds: r.ArrivalSeconds}
		at, _ := slices.BinarySearchFunc(l, e, Entry.compare)
		ix.byPart[r.Partition] = slices.Insert(l, at, e)
	}
	ix.byTaxi[taxiID] = append(old[:0], rows...)
	ix.entries += len(rows)
}

// unlistLocked takes the taxi out of every partition list and returns its
// former rows; the byTaxi entry is left for the caller to replace or delete.
func (ix *PartitionIndex) unlistLocked(taxiID int64) []Row {
	rows := ix.byTaxi[taxiID]
	for _, r := range rows {
		l, e := ix.byPart[r.Partition], Entry{TaxiID: taxiID, ArrivalSeconds: r.ArrivalSeconds}
		at, _ := slices.BinarySearchFunc(l, e, Entry.compare)
		ix.byPart[r.Partition] = slices.Delete(l, at, at+1)
	}
	ix.entries -= len(rows)
	return rows
}

// Remove drops a taxi from all partition lists.
func (ix *PartitionIndex) Remove(taxiID int64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.unlistLocked(taxiID)
	delete(ix.byTaxi, taxiID)
}

// Taxis returns a copy of the partition's list P_z.L_t: ascending by
// arrival time (the paper's ordering), ties by taxi ID.
func (ix *PartitionIndex) Taxis(p partition.ID) []Entry {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]Entry(nil), ix.byPart[p]...)
}

// Search is the index read of one candidate search (§IV-C1), under one read
// lock. It appends to taxis the taxi of every entry in the lists of parts —
// a taxi whose route crosses several of them once per list, so the caller
// dedupes — and to reach the taxis recorded to arrive at partition z no
// later than deadline, which is a prefix of z's arrival-ordered list.
func (ix *PartitionIndex) Search(parts []partition.ID, z partition.ID, deadline float64, taxis, reach []int64) (_, _ []int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, p := range parts {
		for _, e := range ix.byPart[p] {
			taxis = append(taxis, e.TaxiID)
		}
	}
	for _, e := range ix.byPart[z] {
		if e.ArrivalSeconds > deadline {
			break
		}
		reach = append(reach, e.TaxiID)
	}
	return taxis, reach
}

// ArrivalAt returns the indexed arrival time of a taxi at a partition; ok
// is false when the taxi is not expected there within the horizon.
func (ix *PartitionIndex) ArrivalAt(taxiID int64, p partition.ID) (float64, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rows := ix.byTaxi[taxiID]
	if i, ok := findRow(rows, p); ok {
		return rows[i].ArrivalSeconds, true
	}
	return 0, false
}

// Stats summarises index size for the Table IV memory comparison.
type Stats struct {
	Taxis       int
	Entries     int
	MemoryBytes int64
}

// Stats returns a snapshot of index size.
func (ix *PartitionIndex) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Stats{
		Taxis:   len(ix.byTaxi),
		Entries: ix.entries,
		// An entry is a 16-byte list element plus a 16-byte taxi row; then
		// one slice header per list and per taxi, the latter in a map entry.
		MemoryBytes: int64(ix.entries)*32 + int64(len(ix.byTaxi))*64 + int64(len(ix.byPart))*24,
	}
}

// LocationGrid is a uniform geographic grid over taxi positions — the
// index structure of the grid-based baselines. It is safe for concurrent
// use.
type LocationGrid struct {
	minLat, minLng   float64
	cellLat, cellLng float64
	rows, cols       int

	mu     sync.RWMutex
	cells  []map[int64]geo.Point
	byTaxi map[int64]int // taxi -> cell
}

// NewLocationGrid builds a grid over the given bounds with roughly
// cellMeters cells.
func NewLocationGrid(min, max geo.Point, cellMeters float64) *LocationGrid {
	midLat := (min.Lat + max.Lat) / 2
	mLat := geo.EarthRadiusMeters * math.Pi / 180
	mLng := mLat * math.Cos(midLat*math.Pi/180)
	lg := &LocationGrid{
		minLat:  min.Lat,
		minLng:  min.Lng,
		cellLat: cellMeters / mLat,
		cellLng: cellMeters / mLng,
		byTaxi:  make(map[int64]int),
	}
	lg.rows = int((max.Lat-min.Lat)/lg.cellLat) + 1
	lg.cols = int((max.Lng-min.Lng)/lg.cellLng) + 1
	if lg.rows < 1 {
		lg.rows = 1
	}
	if lg.cols < 1 {
		lg.cols = 1
	}
	lg.cells = make([]map[int64]geo.Point, lg.rows*lg.cols)
	return lg
}

func (lg *LocationGrid) cellOf(p geo.Point) int {
	r := int((p.Lat - lg.minLat) / lg.cellLat)
	c := int((p.Lng - lg.minLng) / lg.cellLng)
	if r < 0 {
		r = 0
	}
	if r >= lg.rows {
		r = lg.rows - 1
	}
	if c < 0 {
		c = 0
	}
	if c >= lg.cols {
		c = lg.cols - 1
	}
	return r*lg.cols + c
}

// Update sets a taxi's position.
func (lg *LocationGrid) Update(taxiID int64, p geo.Point) {
	cell := lg.cellOf(p)
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if old, ok := lg.byTaxi[taxiID]; ok && old != cell {
		delete(lg.cells[old], taxiID)
	}
	if lg.cells[cell] == nil {
		lg.cells[cell] = make(map[int64]geo.Point)
	}
	lg.cells[cell][taxiID] = p
	lg.byTaxi[taxiID] = cell
}

// Remove drops a taxi.
func (lg *LocationGrid) Remove(taxiID int64) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if cell, ok := lg.byTaxi[taxiID]; ok {
		delete(lg.cells[cell], taxiID)
		delete(lg.byTaxi, taxiID)
	}
}

// Near returns the taxis within radiusMeters of p, sorted ascending by
// distance.
func (lg *LocationGrid) Near(p geo.Point, radiusMeters float64) []int64 {
	if radiusMeters <= 0 {
		return nil
	}
	mLat := geo.EarthRadiusMeters * math.Pi / 180
	dr := int(radiusMeters/(lg.cellLat*mLat)) + 1
	mLng := mLat * math.Cos(p.Lat*math.Pi/180)
	dc := int(radiusMeters/(lg.cellLng*mLng)) + 1
	// Floor, not truncate: int() rounds toward zero, which would map a
	// query just below the grid's min corner onto row/column 0 and shift
	// the scanned window by one cell for out-of-bounds points.
	pr := int(math.Floor((p.Lat - lg.minLat) / lg.cellLat))
	pc := int(math.Floor((p.Lng - lg.minLng) / lg.cellLng))
	type cand struct {
		id int64
		d  float64
	}
	var found []cand
	lg.mu.RLock()
	for r := pr - dr; r <= pr+dr; r++ {
		if r < 0 || r >= lg.rows {
			continue
		}
		for c := pc - dc; c <= pc+dc; c++ {
			if c < 0 || c >= lg.cols {
				continue
			}
			for id, pos := range lg.cells[r*lg.cols+c] {
				if d := geo.Equirect(p, pos); d <= radiusMeters {
					found = append(found, cand{id, d})
				}
			}
		}
	}
	lg.mu.RUnlock()
	sort.Slice(found, func(i, j int) bool {
		if found[i].d != found[j].d {
			return found[i].d < found[j].d
		}
		return found[i].id < found[j].id
	})
	out := make([]int64, len(found))
	for i, f := range found {
		out[i] = f.id
	}
	return out
}

// Size returns the number of indexed taxis.
func (lg *LocationGrid) Size() int {
	lg.mu.RLock()
	defer lg.mu.RUnlock()
	return len(lg.byTaxi)
}

// MemoryBytes estimates the grid's heap footprint for Table IV.
func (lg *LocationGrid) MemoryBytes() int64 {
	lg.mu.RLock()
	defer lg.mu.RUnlock()
	return int64(len(lg.byTaxi))*64 + int64(len(lg.cells))*8
}
