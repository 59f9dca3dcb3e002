package sim

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/payment"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// world bundles a small deterministic test world.
type world struct {
	g   *roadnet.Graph
	rt  *roadnet.Router // the world's router, CH attached
	spx *roadnet.SpatialIndex
	pt  *partition.Partitioning
	ds  *trace.Dataset
}

func newWorld(t testing.TB) *world {
	t.Helper()
	g, err := roadnet.GenerateCity(roadnet.DefaultCityParams(14, 14))
	if err != nil {
		t.Fatal(err)
	}
	spx := roadnet.NewSpatialIndex(g, 250)
	min, max := g.Bounds()
	center := geo.Midpoint(min, max)
	extent := geo.Equirect(geo.Point{Lat: min.Lat, Lng: min.Lng}, geo.Point{Lat: min.Lat, Lng: max.Lng})
	ds, err := trace.Generate(trace.Workday, trace.GenParams{
		Center: center, ExtentMeters: extent, TripsPerHourPeak: 120,
		UniformFrac: 0.15, MinTripMeters: 250, Seed: 3,
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
	return &world{g: g, rt: rt, spx: spx, pt: pt, ds: ds}
}

// router is a fresh router over the world's hierarchy.
func (w *world) router() *roadnet.Router { return roadnet.NewRouter(w.g, 64).AttachCH(w.rt.CH()) }

// mtShareEngine builds an mT-Share engine over the world's hierarchy;
// tune, when set, adjusts the paper-default configuration.
func (w *world) mtShareEngine(t testing.TB, tune func(*match.Config)) *match.Engine {
	t.Helper()
	cfg := match.DefaultConfig()
	cfg.CH = w.rt.CH()
	if tune != nil {
		tune(&cfg)
	}
	e, err := match.NewEngine(w.pt, w.spx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func (w *world) mtShare(t testing.TB, probabilistic bool) dispatch.Scheme {
	t.Helper()
	return match.NewScheme(w.mtShareEngine(t, nil), probabilistic)
}

// peakRequests prepares one peak hour of requests at flexibility rho 1.3.
func (w *world) peakRequests(t testing.TB, offlineFrac float64) []*fleet.Request {
	t.Helper()
	return w.peakRequestsRho(t, 1.3, offlineFrac)
}

// peakRequestsRho prepares one peak hour of requests at flexibility rho.
func (w *world) peakRequestsRho(t testing.TB, rho, offlineFrac float64) []*fleet.Request {
	t.Helper()
	trips := w.ds.Between(8*time.Hour, 9*time.Hour)
	reqs := PrepareRequests(w.rt, w.spx, trips, PrepareOptions{
		Rho: rho, OfflineFrac: offlineFrac, Seed: 7,
	})
	if len(reqs) < 50 {
		t.Fatalf("only %d requests prepared", len(reqs))
	}
	return reqs
}

func runScheme(t testing.TB, w *world, scheme dispatch.Scheme, reqs []*fleet.Request, taxis int) *Metrics {
	t.Helper()
	eng, err := NewEngine(w.g, scheme, Params{})
	if err != nil {
		t.Fatal(err)
	}
	start := 8 * 3600.0
	eng.PlaceTaxis(taxis, 3, 1, start)
	return eng.Run(reqs, start)
}

func TestPrepareRequests(t *testing.T) {
	w := newWorld(t)
	reqs := w.peakRequests(t, 0.3)
	offline := 0
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if r.Offline {
			offline++
		}
		if r.Deadline <= r.ReleaseAt {
			t.Fatal("deadline not after release")
		}
		// Deadline encodes rho=1.3.
		direct := r.DirectSeconds(fleet.PaperSpeedMps)
		want := r.ReleaseAt.Seconds() + direct*1.3
		if diff := want - r.Deadline.Seconds(); diff > 1 || diff < -1 {
			t.Fatalf("deadline off by %v s", diff)
		}
	}
	frac := float64(offline) / float64(len(reqs))
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("offline fraction %v, want ~0.3", frac)
	}
}

// TestPreparedDirectCostsAreShortestPaths pins request preparation to the
// exact metric: every prepared request's DirectMeters, meeting points
// included, is bit-equal to Dijkstra's cost. The city has arterials, whose
// 0.7x edges are cheaper than the straight line between their endpoints,
// so a straight-line A* heuristic is inadmissible here and overstates a
// few pairs; those costs feed the Eq. 9 deadlines.
func TestPreparedDirectCostsAreShortestPaths(t *testing.T) {
	w := newWorld(t)
	if roadnet.DefaultCityParams(14, 14).ArterialEvery == 0 {
		t.Fatal("test city has no arterials; the check is vacuous")
	}
	for _, radius := range []float64{0, 300} {
		reqs := PrepareRequests(w.rt, w.spx, w.ds.Trips, PrepareOptions{
			Rho: 1.3, Seed: 7,
			MeetingPointRadiusMeters: radius,
		})
		if len(reqs) < 1000 {
			t.Fatalf("radius %v: only %d requests prepared", radius, len(reqs))
		}
		for _, r := range reqs {
			want, _, ok := w.g.ShortestPath(r.Origin, r.Dest)
			if !ok || math.Float64bits(r.DirectMeters) != math.Float64bits(want) {
				t.Fatalf("radius %v request %d: DirectMeters %v, shortest path %v (reachable %v)",
					radius, r.ID, r.DirectMeters, want, ok)
			}
		}
	}
}

func TestSimMTShareServesRequests(t *testing.T) {
	w := newWorld(t)
	reqs := w.peakRequests(t, 0)
	m := runScheme(t, w, w.mtShare(t, false), reqs, 40)
	if m.SchemeName != "mT-Share" {
		t.Fatalf("scheme name %q", m.SchemeName)
	}
	if m.Requests != len(reqs) {
		t.Fatalf("requests = %d, want %d", m.Requests, len(reqs))
	}
	if m.Served == 0 {
		t.Fatal("no requests served")
	}
	if m.Delivered != m.Served {
		t.Fatalf("delivered %d != served %d after drain", m.Delivered, m.Served)
	}
	if m.ServedOffline != 0 {
		t.Fatal("offline served in online-only run")
	}
	if m.MeanResponseMs <= 0 {
		t.Fatal("response time not measured")
	}
	if m.MeanWaitingMin < 0 || m.MeanWaitingMin > 15 {
		t.Fatalf("waiting = %v min", m.MeanWaitingMin)
	}
	if m.MeanDetourMin < 0 {
		t.Fatalf("detour = %v", m.MeanDetourMin)
	}
	if m.IndexMemoryBytes <= 0 {
		t.Fatal("index memory missing")
	}
}

func TestSimDeadlinesRespected(t *testing.T) {
	w := newWorld(t)
	reqs := w.peakRequests(t, 0)
	m := runScheme(t, w, w.mtShare(t, false), reqs, 40)
	for _, rec := range m.Records {
		if !rec.Delivered {
			continue
		}
		if rec.DropoffAt > rec.Req.Deadline.Seconds()+1 {
			t.Fatalf("request %d delivered %.0fs past deadline",
				rec.Req.ID, rec.DropoffAt-rec.Req.Deadline.Seconds())
		}
		if rec.PickupAt > rec.Req.PickupDeadline(fleet.PaperSpeedMps).Seconds()+1 {
			t.Fatalf("request %d picked up past pickup deadline", rec.Req.ID)
		}
		if rec.PickupAt < rec.Req.ReleaseAt.Seconds()-1 {
			t.Fatalf("request %d picked up before release", rec.Req.ID)
		}
		if rode := rec.DropoffOdo - rec.PickupOdo; rode < rec.Req.DirectMeters-1 {
			t.Fatalf("request %d rode %.0fm < direct %.0fm",
				rec.Req.ID, rode, rec.Req.DirectMeters)
		}
	}
}

func TestSimRidesharingBeatsNoSharing(t *testing.T) {
	w := newWorld(t)
	// Scarce supply and a roomier deadline factor so shared capacity is
	// the binding resource (at the unit-test scale γ covers the whole toy
	// city, which hides mT-Share's arrival-time index advantage; the
	// experiment harness exercises that at proper scale).
	trips := w.ds.Between(8*time.Hour, 9*time.Hour)
	reqs := PrepareRequests(w.rt, w.spx, trips, PrepareOptions{
		Rho: 1.5, Seed: 7,
	})
	taxis := 25
	mNo := runScheme(t, w, baseline.NewNoSharing(w.router(), 2500), cloneReqs(reqs), taxis)
	mMt := runScheme(t, w, w.mtShare(t, false), cloneReqs(reqs), taxis)
	if mMt.Served <= mNo.Served {
		t.Fatalf("mT-Share served %d <= No-Sharing %d", mMt.Served, mNo.Served)
	}
	// No-Sharing must have zero detour by construction.
	if mNo.MeanDetourMin > 0.05 {
		t.Fatalf("No-Sharing detour = %v min", mNo.MeanDetourMin)
	}
}

// cloneReqs deep-copies requests so each run gets fresh state.
func cloneReqs(reqs []*fleet.Request) []*fleet.Request {
	out := make([]*fleet.Request, len(reqs))
	for i, r := range reqs {
		c := *r
		out[i] = &c
	}
	return out
}

func TestSimBaselinesServe(t *testing.T) {
	w := newWorld(t)
	reqs := w.peakRequests(t, 0)
	for _, s := range []dispatch.Scheme{
		baseline.NewTShare(w.router(), 2500),
		baseline.NewPGreedyDP(w.router(), 2500),
	} {
		m := runScheme(t, w, s, cloneReqs(reqs), 40)
		if m.Served == 0 {
			t.Fatalf("%s served nothing", s.Name())
		}
		if m.Delivered != m.Served {
			t.Fatalf("%s: delivered %d != served %d", s.Name(), m.Delivered, m.Served)
		}
	}
}

func TestSimOfflineRequestsServedByEncounter(t *testing.T) {
	w := newWorld(t)
	reqs := w.peakRequests(t, 0.4)
	m := runScheme(t, w, w.mtShare(t, true), reqs, 50)
	if m.OfflineRequests == 0 {
		t.Fatal("no offline requests in workload")
	}
	if m.ServedOffline == 0 {
		t.Fatal("no offline requests served")
	}
	// Offline served must have been delivered within deadlines too.
	for _, rec := range m.Records {
		if rec.Req.Offline && rec.Delivered {
			if rec.DropoffAt > rec.Req.Deadline.Seconds()+1 {
				t.Fatal("offline request delivered past deadline")
			}
		}
	}
}

func TestSimProbabilisticServesMoreOffline(t *testing.T) {
	w := newWorld(t)
	reqs := w.peakRequests(t, 0.4)
	plain := runScheme(t, w, w.mtShare(t, false), cloneReqs(reqs), 40)
	pro := runScheme(t, w, w.mtShare(t, true), cloneReqs(reqs), 40)
	if pro.ServedOffline < plain.ServedOffline {
		t.Fatalf("probabilistic served fewer offline: %d vs %d",
			pro.ServedOffline, plain.ServedOffline)
	}
}

func TestSimPaymentAggregates(t *testing.T) {
	w := newWorld(t)
	reqs := w.peakRequests(t, 0)
	m := runScheme(t, w, w.mtShare(t, false), reqs, 40)
	if m.TotalRegularFare <= 0 || m.TotalPaid <= 0 {
		t.Fatalf("fares not settled: paid=%v regular=%v", m.TotalPaid, m.TotalRegularFare)
	}
	if m.TotalPaid > m.TotalRegularFare+1e-6 {
		t.Fatal("passengers paid more than regular in aggregate")
	}
	if m.FareSaving < 0 || m.FareSaving > 0.5 {
		t.Fatalf("fare saving = %v", m.FareSaving)
	}
	// Per-ride: no one pays more than their regular fare.
	for _, rec := range m.Records {
		if regular := payment.DefaultTariff().Fare(rec.Req.DirectMeters); rec.Delivered && rec.Fare > regular+1e-6 {
			t.Fatalf("request %d paid %v > regular %v", rec.Req.ID, rec.Fare, regular)
		}
	}
}

func TestSimTerminates(t *testing.T) {
	// Even with zero taxis the run must end (nothing served).
	w := newWorld(t)
	reqs := w.peakRequests(t, 0.2)
	eng, err := NewEngine(w.g, w.mtShare(t, false), Params{})
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Run(reqs, 8*3600)
	if m.Served != 0 {
		t.Fatal("served without taxis")
	}
	if m.Requests != len(reqs) {
		t.Fatal("request accounting wrong")
	}
}

func TestSimParamsValidate(t *testing.T) {
	bad := []Params{
		{QueueDepth: -1},
		{RetryEveryTicks: 2},
		{QueueDepth: 8, RetryEveryTicks: -1},
		{ShiftChange: ShiftChangeConfig{AtSeconds: 10}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	w := newWorld(t)
	if _, err := NewEngine(w.g, w.mtShare(t, false), bad[0]); err == nil {
		t.Error("negative queue depth accepted")
	}
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero params rejected: %v", err)
	}
}

func TestSimCandidateAccountingTable3Order(t *testing.T) {
	// pGreedyDP examines at least as many candidates as T-Share on the
	// same workload (Table III's ordering).
	w := newWorld(t)
	reqs := w.peakRequests(t, 0)
	mT := runScheme(t, w, baseline.NewTShare(w.router(), 2500), cloneReqs(reqs), 40)
	mP := runScheme(t, w, baseline.NewPGreedyDP(w.router(), 2500), cloneReqs(reqs), 40)
	if mP.MeanCandidates < mT.MeanCandidates {
		t.Fatalf("candidates: pGreedyDP %v < T-Share %v", mP.MeanCandidates, mT.MeanCandidates)
	}
}

func BenchmarkSimPeakHourMTShare(b *testing.B) {
	w := newWorld(b)
	reqs := w.peakRequests(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		scheme := w.mtShare(b, false)
		eng, err := NewEngine(w.g, scheme, Params{})
		if err != nil {
			b.Fatal(err)
		}
		eng.PlaceTaxis(40, 3, 1, 8*3600)
		fresh := cloneReqs(reqs)
		b.StartTimer()
		eng.Run(fresh, 8*3600)
	}
}

func TestSimFleetEfficiencyMetrics(t *testing.T) {
	w := newWorld(t)
	reqs := w.peakRequests(t, 0)
	m := runScheme(t, w, w.mtShare(t, false), reqs, 40)
	if m.TaxiMeters <= 0 {
		t.Fatal("no taxi movement recorded")
	}
	if m.PassengerMeters <= 0 {
		t.Fatal("no passenger distance recorded")
	}
	if m.OccupiedFraction <= 0 || m.OccupiedFraction > 1 {
		t.Fatalf("OccupiedFraction = %v", m.OccupiedFraction)
	}
	if m.MeanOccupancy <= 0 {
		t.Fatalf("MeanOccupancy = %v", m.MeanOccupancy)
	}
	// Passengers cannot ride farther than taxis drove times capacity.
	if m.PassengerMeters > m.TaxiMeters*3 {
		t.Fatalf("passenger meters %v exceed capacity x taxi meters %v", m.PassengerMeters, m.TaxiMeters)
	}
}

func TestSimSharingRaisesOccupancy(t *testing.T) {
	w := newWorld(t)
	trips := w.ds.Between(8*time.Hour, 9*time.Hour)
	reqs := PrepareRequests(w.rt, w.spx, trips, PrepareOptions{
		Rho: 1.5, Seed: 7,
	})
	taxis := 20
	mNo := runScheme(t, w, baseline.NewNoSharing(w.router(), 2500), cloneReqs(reqs), taxis)
	mMt := runScheme(t, w, w.mtShare(t, false), cloneReqs(reqs), taxis)
	if mMt.MeanOccupancy <= mNo.MeanOccupancy {
		t.Fatalf("sharing occupancy %v not above solo %v", mMt.MeanOccupancy, mNo.MeanOccupancy)
	}
}

// TestSimDrivesAtSchemeSpeed plans with an mT-Share engine at twice the
// paper's speed. The simulator must drive taxis at the speed the scheme
// planned with, so every delivered request still meets its deadline.
func TestSimDrivesAtSchemeSpeed(t *testing.T) {
	w := newWorld(t)
	e := w.mtShareEngine(t, func(cfg *match.Config) { cfg.SpeedMps *= 2 })
	m := runScheme(t, w, match.NewScheme(e, false), w.peakRequests(t, 0), 40)
	late := 0
	for _, rec := range m.Records {
		if rec.Delivered && rec.DropoffAt > rec.Req.Deadline.Seconds()+1 {
			late++
		}
	}
	if m.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if late > 0 {
		t.Fatalf("%d of %d delivered requests arrived after their deadlines", late, m.Delivered)
	}
}

// refusingScheme refuses every roadside insertion and every dispatch,
// and counts the dispatches.
type refusingScheme struct {
	dispatch.Scheme
	dispatches int
}

func (s *refusingScheme) OnRequest(context.Context, *fleet.Request, float64) dispatch.Outcome {
	s.dispatches++
	return dispatch.Outcome{}
}

func (s *refusingScheme) TryServeOffline(*fleet.Taxi, *fleet.Request, float64) bool { return false }

// TestEncounterDispatchesOncePerPass puts two taxis beside an offline
// request that neither can fit. A failed fallback dispatch changes
// nothing, so one encounter pass dispatches the request once, not once
// per nearby taxi.
func TestEncounterDispatchesOncePerPass(t *testing.T) {
	w := newWorld(t)
	s := &refusingScheme{Scheme: w.mtShare(t, false)}
	eng, err := NewEngine(w.g, s, Params{})
	if err != nil {
		t.Fatal(err)
	}
	start := 8 * 3600.0
	eng.rt.SetClock(start)
	req := *w.peakRequests(t, 0)[0]
	req.Offline = true
	eng.place(req.Origin, 3)
	eng.place(req.Origin, 3)
	st := eng.rt.Register(req)
	eng.respNanos = make([]int64, 1)
	if n := len(eng.taxiGrid.Near(req.OriginPt, 80)); n != 2 {
		t.Fatalf("%d taxis near the request, want 2", n)
	}
	if eng.encounter(st) {
		t.Fatal("a refused request was served")
	}
	if s.dispatches != 1 {
		t.Fatalf("one encounter pass dispatched %d times, want 1", s.dispatches)
	}
}
