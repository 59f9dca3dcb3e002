package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// World is the shared experiment substrate: the synthetic city, the
// historical trace (for partitioning) and the evaluation traces, plus
// cached partitionings. It is built once per Lab and reused by every
// experiment.
type World struct {
	Scale Scale

	G   *roadnet.Graph
	Spx *roadnet.SpatialIndex

	// History is a full synthetic workday used only for mining transition
	// patterns; Workday and Weekend are the evaluation traces.
	History *trace.Dataset
	Workday *trace.Dataset
	Weekend *trace.Dataset

	// gen is the trace generator's parameters, less the seed that
	// traceParams adds.
	gen     trace.GenParams
	snapped []partition.OD

	mu      sync.Mutex
	parts   map[string]*partition.Partitioning
	oracles map[*partition.Partitioning]*partition.Oracle

	chOnce sync.Once
	ch     *roadnet.CH

	rtOnce sync.Once
	rt     *roadnet.Router
}

// BuildWorld constructs the experiment substrate for a scale.
func BuildWorld(s Scale) (*World, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cp := roadnet.DefaultCityParams(s.CityRows, s.CityCols)
	cp.BlockMeters = s.BlockMeters
	cp.Seed = s.Seed
	g, err := roadnet.GenerateCity(cp)
	if err != nil {
		return nil, err
	}
	min, max := g.Bounds()
	w := &World{
		Scale: s,
		G:     g,
		Spx:   roadnet.NewSpatialIndex(g, 250),
		gen: trace.GenParams{
			Center:           geo.Midpoint(min, max),
			ExtentMeters:     geo.Equirect(geo.Point{Lat: min.Lat, Lng: min.Lng}, geo.Point{Lat: min.Lat, Lng: max.Lng}),
			TripsPerHourPeak: s.PeakTripsPerHour,
			UniformFrac:      0.15,
			MinTripMeters:    s.BlockMeters * 2,
		},
		parts:   make(map[string]*partition.Partitioning),
		oracles: make(map[*partition.Partitioning]*partition.Oracle),
	}
	if w.History, err = trace.Generate(trace.Workday, w.traceParams(historySeed)); err != nil {
		return nil, err
	}
	if w.Workday, err = trace.Generate(trace.Workday, w.traceParams(workdaySeed)); err != nil {
		return nil, err
	}
	if w.Weekend, err = trace.Generate(trace.Weekend, w.traceParams(weekendSeed)); err != nil {
		return nil, err
	}
	pairs := make([]struct{ Origin, Dest geo.Point }, len(w.History.Trips))
	for i, tr := range w.History.Trips {
		pairs[i] = struct{ Origin, Dest geo.Point }{tr.Origin, tr.Dest}
	}
	w.snapped = partition.SnapTrips(w.Spx, pairs)
	return w, nil
}

// Trace seeds, as offsets from Scale.Seed.
const (
	historySeed = 100
	workdaySeed = 200
	weekendSeed = 300
)

// traceParams returns the generator parameters of the world's trace drawn
// with seed Scale.Seed+offset. A shaped variant of the Workday generated
// from traceParams(workdaySeed) shares the base day's every draw, so the
// pair differs only where the shape injects.
func (w *World) traceParams(offset int64) trace.GenParams {
	p := w.gen
	p.Seed = w.Scale.Seed + offset
	return p
}

// Partitioning returns (building and caching on first use) a partitioning
// of the given kind ("bipartite" or "grid") with the given κ.
func (w *World) Partitioning(kind string, kappa int) (*partition.Partitioning, error) {
	key := fmt.Sprintf("%s/%d", kind, kappa)
	w.mu.Lock()
	defer w.mu.Unlock()
	if pt, ok := w.parts[key]; ok {
		return pt, nil
	}
	var (
		pt  *partition.Partitioning
		err error
	)
	switch kind {
	case "bipartite":
		p := partition.DefaultParams(kappa)
		p.KTrans = w.Scale.KTrans
		if p.KTrans >= kappa {
			p.KTrans = kappa / 2
			if p.KTrans < 1 {
				p.KTrans = 1
			}
		}
		p.Seed = w.Scale.Seed
		pt, err = partition.BuildBipartite(w.G, w.snapped, p)
	case "grid":
		pt, err = partition.BuildGrid(w.G, w.snapped, kappa)
	default:
		return nil, fmt.Errorf("experiments: unknown partitioning kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	w.parts[key] = pt
	return pt, nil
}

// CH returns (building on first use) the world's contraction hierarchy.
// Preprocessing is the expensive part of the CH backend, and the result
// is a pure function of the graph, so every scenario of a lab shares one
// instance.
func (w *World) CH() *roadnet.CH {
	w.chOnce.Do(func() {
		w.ch = roadnet.BuildCH(w.G)
	})
	return w.ch
}

// oracle returns (building on first use) the landmark distance oracle
// over one of the world's partitionings. Like the CH it is immutable.
func (w *World) oracle(pt *partition.Partitioning) *partition.Oracle {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, ok := w.oracles[pt]
	if !ok {
		o = partition.NewOracle(pt)
		w.oracles[pt] = o
	}
	return o
}

// router returns (building on first use) the world's shared router over
// its CH. It prices every prepared request, so direct costs, Eq. 9
// deadlines and detour denominators are exact shortest paths.
func (w *World) router() *roadnet.Router {
	w.rtOnce.Do(func() {
		w.rt = roadnet.NewRouter(w.G, match.DefaultConfig().RouterCacheTrees).AttachCH(w.CH())
	})
	return w.rt
}

// Window identifies an evaluation slice of a trace.
type Window struct {
	Day  trace.DayKind
	From time.Duration
	To   time.Duration
}

// PeakWindow is the paper's peak scenario: workday 8:00–9:00.
func PeakWindow() Window {
	return Window{Day: trace.Workday, From: 8 * time.Hour, To: 9 * time.Hour}
}

// NonPeakWindow is the paper's non-peak scenario: weekend 10:00–11:00.
func NonPeakWindow() Window {
	return Window{Day: trace.Weekend, From: 10 * time.Hour, To: 11 * time.Hour}
}

// Requests prepares the requests of a trace window.
func (w *World) Requests(win Window, rho, offlineFrac float64) []*fleet.Request {
	ds := w.Workday
	if win.Day == trace.Weekend {
		ds = w.Weekend
	}
	trips := ds.Between(win.From, win.To)
	return sim.PrepareRequests(w.router(), w.Spx, trips, sim.PrepareOptions{
		Rho:         rho,
		OfflineFrac: offlineFrac,
		Seed:        w.Scale.Seed + 7,
	})
}
