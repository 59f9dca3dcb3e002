package match_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/replay"
	"repro/internal/roadnet"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// checkedScheme runs the evaluation-path differential on every request
// before the wrapped scheme dispatches it. Both sides only read fleet
// state, so the run's outcomes are those of the bare scheme.
type checkedScheme struct {
	*match.Scheme
	t       *testing.T
	label   string
	checked int
}

func (s *checkedScheme) check(ctx context.Context, req *fleet.Request, now float64) {
	s.t.Helper()
	s.checked++
	got, gotOK := s.DispatchContext(ctx, req, now, s.Probabilistic)
	want, wantOK := s.BatchBest(ctx, req, now, s.Probabilistic)
	if gotOK != wantOK {
		s.t.Fatalf("%s: request %d: DispatchContext ok=%v, batch enumeration ok=%v", s.label, req.ID, gotOK, wantOK)
	}
	if got.Candidates != want.Candidates {
		s.t.Fatalf("%s: request %d: %d candidates, batch enumeration %d", s.label, req.ID, got.Candidates, want.Candidates)
	}
	if !gotOK {
		return
	}
	if got.Taxi.ID != want.Taxi.ID {
		s.t.Fatalf("%s: request %d: taxi %d, batch enumeration taxi %d", s.label, req.ID, got.Taxi.ID, want.Taxi.ID)
	}
	if math.Float64bits(got.DetourMeters) != math.Float64bits(want.DetourMeters) ||
		math.Float64bits(got.Eval.TotalMeters) != math.Float64bits(want.Eval.TotalMeters) {
		s.t.Fatalf("%s: request %d: detour %v / total %v, batch enumeration %v / %v", s.label, req.ID,
			got.DetourMeters, got.Eval.TotalMeters, want.DetourMeters, want.Eval.TotalMeters)
	}
	if len(got.Events) != len(want.Events) || len(got.Legs) != len(want.Legs) ||
		len(got.Eval.ArrivalSeconds) != len(want.Eval.ArrivalSeconds) {
		s.t.Fatalf("%s: request %d: %d events, %d legs, %d arrivals; batch enumeration %d, %d, %d", s.label, req.ID,
			len(got.Events), len(got.Legs), len(got.Eval.ArrivalSeconds),
			len(want.Events), len(want.Legs), len(want.Eval.ArrivalSeconds))
	}
	for k := range got.Events {
		if got.Events[k].Req != want.Events[k].Req || got.Events[k].Kind != want.Events[k].Kind {
			s.t.Fatalf("%s: request %d: event %d differs", s.label, req.ID, k)
		}
		if !slices.Equal(got.Legs[k], want.Legs[k]) {
			s.t.Fatalf("%s: request %d: leg %d differs", s.label, req.ID, k)
		}
		if math.Float64bits(got.Eval.ArrivalSeconds[k]) != math.Float64bits(want.Eval.ArrivalSeconds[k]) {
			s.t.Fatalf("%s: request %d: arrival %d at %v, batch enumeration %v", s.label, req.ID, k,
				got.Eval.ArrivalSeconds[k], want.Eval.ArrivalSeconds[k])
		}
	}
}

func (s *checkedScheme) OnRequest(ctx context.Context, req *fleet.Request, now float64) dispatch.Outcome {
	s.check(ctx, req, now)
	return s.Scheme.OnRequest(ctx, req, now)
}

func (s *checkedScheme) OnBatch(reqs []*fleet.Request, now float64) []dispatch.BatchResult {
	for _, r := range reqs {
		s.check(context.Background(), r, now)
	}
	return s.Scheme.OnBatch(reqs, now)
}

// TestOneEvaluationPath requires a single dispatch and the batch round's
// enumeration to agree bit for bit: for every request of the simulation
// fingerprint's mT-Share runs and of the service test world (router
// faults and cancellations on, greedy and global-assignment retry
// rounds), DispatchContext's assignment equals the best of the batch
// enumeration's options once that option's legs are built — the taxi,
// the events, the legs, the detour and every arrival time.
func TestOneEvaluationPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three simulations and two service worlds")
	}
	w := newSimWorld(t)
	peak := w.requests(8*time.Hour, 0)
	cells := []struct {
		name          string
		probabilistic bool
		reqs          []*fleet.Request
		taxis         int
		params        sim.Params
	}{
		{name: "mtshare-queue", reqs: peak, taxis: 8, params: sim.Params{QueueDepth: 24, RetryEveryTicks: 2}},
		{name: "mtsharepro-nonpeak-offline", probabilistic: true, reqs: w.requests(13*time.Hour, 0.35), taxis: 12},
		{name: "mtshare-shift", reqs: peak, taxis: 16, params: sim.Params{
			ShiftChange: sim.ShiftChangeConfig{AtSeconds: 8*3600 + 600, Fraction: 0.25, LagSeconds: 300, Seed: 9},
		}},
	}
	for _, c := range cells {
		cfg := match.DefaultConfig()
		cfg.CH = w.rt.CH()
		e, err := match.NewEngine(w.pt, w.spx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := &checkedScheme{Scheme: match.NewScheme(e, c.probabilistic), t: t, label: c.name}
		eng, err := sim.NewEngine(w.g, s, c.params)
		if err != nil {
			t.Fatal(err)
		}
		start := c.reqs[0].ReleaseAt.Truncate(time.Hour).Seconds()
		eng.PlaceTaxis(c.taxis, 3, 1, start)
		m := eng.Run(c.reqs, start)
		t.Logf("%s: %d requests checked, %d of %d served", c.name, s.checked, m.Served, m.Requests)
		if s.checked == 0 || m.Served == 0 {
			t.Fatalf("%s: checked %d requests, served %d", c.name, s.checked, m.Served)
		}
	}
	for _, batchAssign := range []bool{false, true} {
		checkServiceWorld(t, batchAssign)
	}
}

// checkServiceWorld drives the service package's test world — an 8×8
// city under a fault plan of unreachable pairs and cancelled dispatches,
// with a pending queue retried every tick — through the checked scheme.
func checkServiceWorld(t *testing.T, batchAssign bool) {
	cfg := service.Config{
		Rows: 8, Cols: 8, Seed: 5,
		HistoryTripsPerHour: 300,
		PartitionSeed:       5,
		Match:               match.DefaultConfig(),
		Faults:              &replay.FaultPlan{Seed: 3, UnreachableEvery: 9, CancelEvery: 7},
	}
	cfg.QueueDepth, cfg.RetryEveryTicks, cfg.BatchAssign = 8, 1, batchAssign
	r, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &checkedScheme{Scheme: r.Scheme.(*match.Scheme), t: t, label: "service"}
	if batchAssign {
		s.label = "service-batch-assign"
	}
	r.Scheme = s
	lo, hi := r.Graph.Bounds()
	for k := 0; k < 240; k++ {
		rng := rand.New(rand.NewSource(int64(1000 + k)))
		pt := func() geo.Point {
			return geo.Point{Lat: lo.Lat + rng.Float64()*(hi.Lat-lo.Lat), Lng: lo.Lng + rng.Float64()*(hi.Lng-lo.Lng)}
		}
		ctx := context.Background()
		switch {
		case k < 6:
			r.AddTaxi(pt(), 3)
		case k%5 == 4:
			r.Tick(30*time.Second, false)
		case k%13 == 7:
			r.Hail(ctx, 1+rng.Int63n(8), r.NewRide(pt(), pt(), 1.5))
		case k%19 == 3:
			p := pt()
			r.Submit(ctx, r.NewRide(p, p, 1.3))
		case k%17 == 11:
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			r.Submit(cctx, r.NewRide(pt(), pt(), 1.3))
		default:
			r.Submit(ctx, r.NewRide(pt(), pt(), 2))
		}
	}
	t.Logf("%s: %d requests checked", s.label, s.checked)
	if s.checked == 0 {
		t.Fatalf("%s: no request checked", s.label)
	}
}

// simWorld is the simulation fingerprint's world: a 14×14 city, a
// synthetic workday seeded 3, and 12 bipartite partitions.
type simWorld struct {
	g   *roadnet.Graph
	rt  *roadnet.Router
	spx *roadnet.SpatialIndex
	pt  *partition.Partitioning
	ds  *trace.Dataset
}

func newSimWorld(t *testing.T) *simWorld {
	t.Helper()
	g, err := roadnet.GenerateCity(roadnet.DefaultCityParams(14, 14))
	if err != nil {
		t.Fatal(err)
	}
	spx := roadnet.NewSpatialIndex(g, 250)
	min, max := g.Bounds()
	ds, err := trace.Generate(trace.Workday, trace.GenParams{
		Center:           geo.Midpoint(min, max),
		ExtentMeters:     geo.Equirect(geo.Point{Lat: min.Lat, Lng: min.Lng}, geo.Point{Lat: min.Lat, Lng: max.Lng}),
		TripsPerHourPeak: 120, UniformFrac: 0.15, MinTripMeters: 250, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]struct{ Origin, Dest geo.Point }, len(ds.Trips))
	for i, tr := range ds.Trips {
		pairs[i] = struct{ Origin, Dest geo.Point }{tr.Origin, tr.Dest}
	}
	params := partition.DefaultParams(12)
	params.KTrans = 5
	pt, err := partition.BuildBipartite(g, partition.SnapTrips(spx, pairs), params)
	if err != nil {
		t.Fatal(err)
	}
	rt := roadnet.NewRouter(g, 64).AttachCH(roadnet.BuildCH(g))
	return &simWorld{g: g, rt: rt, spx: spx, pt: pt, ds: ds}
}

// requests prepares the hour from `from` at flexibility 1.3.
func (w *simWorld) requests(from time.Duration, offlineFrac float64) []*fleet.Request {
	trips := w.ds.Between(from, from+time.Hour)
	return sim.PrepareRequests(w.rt, w.spx, trips, sim.PrepareOptions{Rho: 1.3, OfflineFrac: offlineFrac, Seed: 7})
}
