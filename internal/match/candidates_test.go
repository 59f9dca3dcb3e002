package match

import (
	"compress/gzip"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/partition"
	"repro/internal/replay"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// candidateTaxisReference is Engine.CandidateTaxis as it stood before the
// search was rebuilt on the index's ordered lists, verbatim: two maps per
// call, the materialised cluster union, one locked ArrivalAt per taxi. It
// survives here as the differential oracle of the search that replaced it.
func (e *Engine) candidateTaxisReference(req *fleet.Request, nowSeconds float64) []*fleet.Taxi {
	radius := e.searchRadius(req, nowSeconds)
	if radius <= 0 {
		return nil
	}
	parts := e.pt.PartitionsNear(e.spx, req.OriginPt, radius)
	inDisc := make(map[int64]float64) // taxi -> arrival at own partition
	for _, p := range parts {
		for _, entry := range e.pindex.Taxis(p) {
			if _, ok := inDisc[entry.TaxiID]; !ok {
				inDisc[entry.TaxiID] = entry.ArrivalSeconds
			}
		}
	}
	// Mobility-cluster intersection for occupied taxis: the union of all
	// direction-compatible clusters' taxi lists.
	clusterTaxis := make(map[int64]bool)
	for _, id := range e.clusters.CompatibleTaxis(req.MobilityVector()) {
		clusterTaxis[id] = true
	}
	reqPart := e.pt.PartitionOf(req.Origin)
	pickupDeadline := req.PickupDeadline(e.cfg.SpeedMps).Seconds()

	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []*fleet.Taxi
	for id := range inDisc {
		t, ok := e.taxis[id]
		if !ok {
			continue
		}
		// Rule 1: empty taxis in the disc partitions are always included.
		// Occupied taxis must share the request's travel direction.
		if !t.Empty() && !clusterTaxis[id] {
			e.ins.prunedByDirection.Inc()
			continue
		}
		// Rule 2: spare seats.
		if t.IdleSeats() < req.Passengers {
			e.ins.prunedByCapacity.Inc()
			continue
		}
		// Rule 3: reachability of the request's partition by the pickup
		// deadline. A taxi whose recorded (planned-route) arrival makes
		// the deadline certainly qualifies; one whose planned arrival is
		// late may still divert, so it is kept unless even the
		// straight-line lower bound rules it out.
		if arr, ok := e.pindex.ArrivalAt(id, reqPart); !ok || arr > pickupDeadline {
			lb := nowSeconds + geo.Equirect(t.Point(), req.OriginPt)/e.cfg.SpeedMps
			if lb > pickupDeadline {
				e.ins.prunedByReachability.Inc()
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

// searchSubject is one engine under differential test, with the fleet it
// owns and the scheme that moves it.
type searchSubject struct {
	e      *Engine
	scheme *Scheme
	taxis  []*fleet.Taxi
}

func engineSubject(e *Engine) *searchSubject {
	return &searchSubject{e: e, scheme: NewScheme(e, false)}
}

// pruned reads the three refinement counters, the side effects a search
// must share with its reference.
func (s *searchSubject) pruned() [3]int64 {
	st := s.e.Stats()
	return [3]int64{st.PrunedByDirection, st.PrunedByCapacity, st.PrunedByReachability}
}

// check runs the search and its reference on one request and fails unless
// they name the same taxis and move the pruning counters by the same
// amounts; the search's own order must be ascending taxi ID.
func (s *searchSubject) check(t *testing.T, req *fleet.Request, now float64, what string) int {
	t.Helper()
	c0 := s.pruned()
	got := s.e.CandidateTaxis(req, now)
	c1 := s.pruned()
	want := s.e.candidateTaxisReference(req, now)
	c2 := s.pruned()
	ids := func(ts []*fleet.Taxi) []int64 {
		out := make([]int64, len(ts))
		for i, tx := range ts {
			out[i] = tx.ID
		}
		return out
	}
	gotIDs, wantIDs := ids(got), ids(want)
	if !slices.IsSorted(gotIDs) {
		t.Fatalf("%s: candidates %v not in ascending taxi-ID order", what, gotIDs)
	}
	slices.Sort(wantIDs)
	if !slices.Equal(gotIDs, wantIDs) {
		t.Fatalf("%s: candidates %v, reference %v", what, gotIDs, wantIDs)
	}
	for i, name := range []string{"pruned_direction", "pruned_capacity", "pruned_reachability"} {
		if c1[i]-c0[i] != c2[i]-c1[i] {
			t.Fatalf("%s: %s moved by %d, the reference moves it by %d", what, name, c1[i]-c0[i], c2[i]-c1[i])
		}
	}
	return len(got)
}

func (s *searchSubject) addTaxi(g *roadnet.Graph, id int64, capacity int, at roadnet.VertexID, now float64) {
	tx := fleet.NewTaxi(g, id, capacity, at)
	s.taxis = append(s.taxis, tx)
	s.scheme.AddTaxi(tx, now)
}

// serve dispatches and commits the request, as a driver would.
func (s *searchSubject) serve(req *fleet.Request, now float64) {
	if a, ok := s.e.DispatchContext(context.Background(), req, now, false); ok {
		_ = s.e.Commit(a, now)
	}
}

// advance drives every taxi dt seconds along its plan, as a driver's tick
// does: dropoffs leave the clusters, and a taxi is reindexed only when it
// crossed a partition border, so rows computed at plan time go stale
// mid-route exactly as they do in production.
func (s *searchSubject) advance(now, dt float64) {
	speed := s.e.Config().SpeedMps
	for _, tx := range s.taxis {
		for _, v := range tx.Advance(speed * dt) {
			if v.Event.Kind == fleet.Dropoff {
				s.e.OnRequestDone(v.Event.Req)
			}
		}
		s.scheme.OnTaxiAdvanced(tx, now+dt)
	}
}

// searchWorld is a map with its routing structures, shared by the subjects
// of many short-lived engines.
type searchWorld struct {
	g   *roadnet.Graph
	spx *roadnet.SpatialIndex
	pt  *partition.Partitioning
	ch  *roadnet.CH
	or  *partition.Oracle
}

func worldOf(env *testEnv) *searchWorld {
	cfg := env.e.Config()
	return &searchWorld{g: env.g, spx: env.spx, pt: env.pt, ch: cfg.CH, or: cfg.Oracle}
}

// subject builds a fresh engine over the world.
func (w *searchWorld) subject(t *testing.T, cfg Config) *searchSubject {
	t.Helper()
	cfg.CH, cfg.Oracle = w.ch, w.or
	e, err := NewEngine(w.pt, w.spx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return engineSubject(e)
}

func (w *searchWorld) request(rt *roadnet.Router, id int64, o, d roadnet.VertexID, now, rho, speed float64) *fleet.Request {
	direct := rt.Cost(o, d)
	return &fleet.Request{
		ID:           fleet.RequestID(id),
		ReleaseAt:    time.Duration(now * float64(time.Second)),
		Origin:       o,
		Dest:         d,
		Deadline:     time.Duration((now + direct/speed*rho) * float64(time.Second)),
		DirectMeters: direct,
		Passengers:   1,
		OriginPt:     w.g.Point(o),
		DestPt:       w.g.Point(d),
	}
}

// TestCandidateSearchMatchesReferenceOnRandomWorlds is the differential test
// of the rebuilt search: 200 seeded worlds, each a fresh fleet under a
// configuration drawn to stress one of the rules' corners — search radii
// from the default down to below the vertex spacing, index horizons from an
// hour down to half a minute (so mid-route arrivals fall inside and beyond
// it), direction thresholds from any to nearly parallel — driven through
// dispatches, commits and ticks, with every request searched as issued and
// again as a zero-magnitude vector, as a group too large for most taxis,
// from a point outside the grid, and after its pickup deadline has passed.
func TestCandidateSearchMatchesReferenceOnRandomWorlds(t *testing.T) {
	w := worldOf(newTestEnv(t, nil))
	rt := roadnet.NewRouter(w.g, 64).AttachCH(w.ch)
	n := w.g.NumVertices()
	searched, nonEmpty := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.SearchRangeMeters = []float64{3000, 2500, 900, 150, 20, 1}[rng.Intn(6)]
		cfg.HorizonSeconds = []float64{3600, 240, 30}[rng.Intn(3)]
		cfg.Lambda = []float64{0.707, 0.707, 0, 0.96}[rng.Intn(4)]
		s := w.subject(t, cfg)
		for id := int64(1); id <= 14; id++ {
			at, capacity := roadnet.VertexID(rng.Intn(n)), 1+rng.Intn(3)
			s.addTaxi(w.g, id*3, capacity, at, 0) // sparse IDs: nothing may assume 1..n
		}
		now := 0.0
		for step := int64(1); step <= 30; step++ {
			o, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
			if o == d {
				continue
			}
			req := w.request(rt, seed*1000+step, o, d, now, 1.2+rng.Float64(), cfg.SpeedMps)
			variants := map[string]*fleet.Request{"as issued": req}
			mutate := func(name string, f func(*fleet.Request)) {
				c := *req
				f(&c)
				variants[name] = &c
			}
			mutate("zero-magnitude vector", func(r *fleet.Request) { r.DestPt = r.OriginPt })
			mutate("three passengers", func(r *fleet.Request) { r.Passengers = 3 })
			mutate("origin outside the grid", func(r *fleet.Request) { r.OriginPt.Lat += 0.05; r.OriginPt.Lng -= 0.08 })
			for name, r := range variants {
				searched++
				if s.check(t, r, now, name) > 0 {
					nonEmpty++
				}
			}
			late := req.PickupDeadline(cfg.SpeedMps).Seconds() + 1
			if got := s.check(t, req, late, "pickup deadline passed"); got != 0 {
				t.Fatalf("%d candidates after the pickup deadline", got)
			}
			s.serve(req, now)
			if step%3 == 0 {
				dt := []float64{5, 30, 120}[rng.Intn(3)]
				s.advance(now, dt)
				now += dt
			}
		}
	}
	if nonEmpty < searched/10 {
		t.Fatalf("only %d of %d searches found a candidate; the worlds do not exercise the rules", nonEmpty, searched)
	}
}

// TestCandidateSearchMatchesReferenceOnGoldenLogs replays the inputs of
// both golden logs — every taxi placement, request, street hail and tick —
// on the facade's world rebuilt from the log's header, and holds the search
// to its reference on every request and hail of the logs.
func TestCandidateSearchMatchesReferenceOnGoldenLogs(t *testing.T) {
	for _, name := range []string{"uniform", "peakhour"} {
		f, err := os.Open("../../testdata/golden/" + name + ".jsonl.gz")
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		h, events, err := replay.ReadAll(zr)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}

		// The world System.New builds from these options.
		cp := roadnet.DefaultCityParams(h.Rows, h.Cols)
		cp.Seed = h.Seed
		g, err := roadnet.GenerateCity(cp)
		if err != nil {
			t.Fatal(err)
		}
		spx := roadnet.NewSpatialIndex(g, 250)
		lo, hi := g.Bounds()
		ds, err := trace.Generate(trace.Workday, trace.GenParams{
			Center:           geo.Midpoint(lo, hi),
			ExtentMeters:     geo.Equirect(lo, geo.Point{Lat: lo.Lat, Lng: hi.Lng}),
			TripsPerHourPeak: 300,
			UniformFrac:      0.15,
			Seed:             h.Seed + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([]struct{ Origin, Dest geo.Point }, len(ds.Trips))
		for i, tr := range ds.Trips {
			pairs[i] = struct{ Origin, Dest geo.Point }{tr.Origin, tr.Dest}
		}
		kappa := h.Partitions
		if kappa == 0 {
			kappa = g.NumVertices() / 25
			if kappa < 8 {
				kappa = 8
			}
		}
		pp := partition.DefaultParams(kappa)
		if pp.KTrans >= kappa {
			pp.KTrans = kappa / 2
		}
		pp.Seed = h.Seed
		pt, err := partition.BuildBipartite(g, partition.SnapTrips(spx, pairs), pp)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.SpeedMps = h.SpeedKmh * 1000 / 3600
		cfg.Lambda = geo.CosOfDegrees(h.MaxDirectionDiffDegrees)
		if cfg.SearchRangeMeters = h.SearchRangeMeters; cfg.SearchRangeMeters == 0 {
			cfg.SearchRangeMeters = min(DefaultConfig().SearchRangeMeters, geo.Equirect(lo, hi)/2)
		}
		e, err := NewEngine(pt, spx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := worldOf(&testEnv{g: g, spx: spx, pt: pt, e: e})
		s := w.subject(t, cfg)

		now, nextID, searched := 0.0, int64(0), 0
		vertex := func(p replay.Point) roadnet.VertexID {
			v, _ := spx.NearestVertex(geo.Point{Lat: p.Lat, Lng: p.Lng})
			return v
		}
		ride := func(pickup, dropoff replay.Point, flexibility float64) *fleet.Request {
			o, d := vertex(pickup), vertex(dropoff)
			if o == d {
				return nil
			}
			nextID++
			return w.request(e.Router(), nextID, o, d, now, flexibility, cfg.SpeedMps)
		}
		for _, ev := range events {
			switch {
			case ev.AddTaxi != nil:
				s.addTaxi(g, int64(len(s.taxis)+1), ev.AddTaxi.Capacity, vertex(ev.AddTaxi.At), now)
			case ev.Request != nil:
				if req := ride(ev.Request.Pickup, ev.Request.Dropoff, ev.Request.Flexibility); req != nil {
					searched++
					s.check(t, req, now, "golden request")
					s.serve(req, now)
				}
			case ev.Hail != nil:
				if req := ride(ev.Hail.Pickup, ev.Hail.Dropoff, ev.Hail.Flexibility); req != nil {
					searched++
					s.check(t, req, now, "golden hail")
					s.scheme.TryServeOffline(s.taxis[ev.Hail.Taxi-1], req, now)
				}
			case ev.Tick != nil:
				dt := time.Duration(ev.Tick.DNanos).Seconds()
				s.advance(now, dt)
				now += dt
			}
		}
		if searched < 30 {
			t.Fatalf("%s: only %d requests searched", name, searched)
		}
	}
}

// TestDispatchSecondsCountsEveryDispatch pins the identity the ledger's
// per-dispatch figures divide by: every path that counts a dispatch in
// mtshare_match_dispatches_total — DispatchContext and the batch round's
// option enumeration — observes it in mtshare_match_dispatch_seconds, so
// the histogram's count equals the counter after a DispatchBatch round
// with BatchAssign on and off.
func TestDispatchSecondsCountsEveryDispatch(t *testing.T) {
	env := newTestEnv(t, nil)
	w := worldOf(env)
	for _, batchAssign := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.SearchRangeMeters = 3000
		cfg.BatchAssign = batchAssign
		s := w.subject(t, cfg)
		rng := rand.New(rand.NewSource(9))
		n := w.g.NumVertices()
		for id := int64(1); id <= 6; id++ {
			s.addTaxi(w.g, id, 3, roadnet.VertexID(rng.Intn(n)), 0)
		}
		var reqs []*fleet.Request
		for id := int64(1); len(reqs) < 12; id++ {
			if o, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)); o != d {
				reqs = append(reqs, w.request(env.e.Router(), id, o, d, 0, 1.6, cfg.SpeedMps))
			}
		}
		s.serve(reqs[0], 0)
		s.e.DispatchBatch(context.Background(), reqs[1:], 0, false)

		snap := s.e.Metrics().Snapshot()
		dispatches := snap.Counters["mtshare_match_dispatches_total"]
		observed := int64(snap.Histograms["mtshare_match_dispatch_seconds"].Count)
		if dispatches < int64(len(reqs)) || observed != dispatches {
			t.Fatalf("BatchAssign=%v: dispatch_seconds_count %d, dispatches_total %d over %d requests",
				batchAssign, observed, dispatches, len(reqs))
		}
	}
}

// TestCandidateSearchMemoMatchesReferenceOverTicks drives the memoised disc
// step the way a backlog drives it: the same parked requests re-searched at
// every tick of a moving fleet, each also from a point off its origin vertex
// (which must walk the disc, not read the vertex's memo), held to the
// reference on the set and the three pruning counters.
func TestCandidateSearchMemoMatchesReferenceOverTicks(t *testing.T) {
	w := worldOf(newTestEnv(t, nil))
	rt := roadnet.NewRouter(w.g, 64).AttachCH(w.ch)
	n := w.g.NumVertices()
	for _, radius := range []float64{2500, 900, 150} {
		cfg := DefaultConfig()
		cfg.SearchRangeMeters = radius
		s := w.subject(t, cfg)
		rng := rand.New(rand.NewSource(int64(radius)))
		for id := int64(1); id <= 16; id++ {
			s.addTaxi(w.g, id, 1+rng.Intn(3), roadnet.VertexID(rng.Intn(n)), 0)
		}
		var parked []*fleet.Request
		for id := int64(1); len(parked) < 12; id++ {
			if o, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)); o != d {
				parked = append(parked, w.request(rt, id, o, d, 0, 4, cfg.SpeedMps))
			}
		}
		now := 0.0
		for tick := int64(0); tick < 40; tick++ {
			for _, req := range parked {
				s.check(t, req, now, "parked")
				off := *req
				off.OriginPt.Lat += 0.004
				s.check(t, &off, now, "off-vertex origin")
			}
			if o, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)); o != d {
				s.serve(w.request(rt, 1000+tick, o, d, now, 1.6, cfg.SpeedMps), now)
			}
			s.advance(now, 15)
			now += 15
		}
		d := s.e.disc
		for _, req := range parked {
			got := d.near[req.Origin].Load()
			if got == nil {
				t.Fatalf("radius %v: origin %d of a searched request is not memoised", radius, req.Origin)
			}
			if want := d.pt.PartitionsNear(w.spx, w.g.Point(req.Origin), radius); !slices.Equal(*got, want) {
				t.Fatalf("radius %v: memo of origin %d is %v, the disc walk gives %v", radius, req.Origin, *got, want)
			}
		}
	}
}

// TestCandidateSearchMemoConcurrentFill starts several searches from the
// same unfilled origins at once (run it under -race): whichever fill wins,
// every search must return the reference's set and the disc walk's list.
func TestCandidateSearchMemoConcurrentFill(t *testing.T) {
	env := newTestEnv(t, func(c *Config) { c.SearchRangeMeters = 900 })
	s, w := engineSubject(env.e), worldOf(env)
	rng := rand.New(rand.NewSource(8))
	n := env.g.NumVertices()
	for id := int64(1); id <= 20; id++ {
		s.addTaxi(env.g, id, 3, roadnet.VertexID(rng.Intn(n)), 0)
	}
	var reqs []*fleet.Request
	for id := int64(1); len(reqs) < 6; id++ {
		if o, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)); o != d {
			reqs = append(reqs, w.request(env.e.Router(), id, o, d, 0, 2, env.e.Config().SpeedMps))
		}
	}
	ids := func(ts []*fleet.Taxi) []int64 {
		out := make([]int64, len(ts))
		for i, tx := range ts {
			out[i] = tx.ID
		}
		return out
	}
	wantIDs := make([][]int64, len(reqs))
	wantParts := make([][]partition.ID, len(reqs))
	for i, req := range reqs {
		wantIDs[i] = ids(env.e.candidateTaxisReference(req, 0))
		slices.Sort(wantIDs[i])
		wantParts[i] = env.pt.PartitionsNear(env.spx, req.OriginPt, 900)
	}
	const workers = 6
	for round := 0; round < 20; round++ {
		env.e.disc = newDiscMemo(env.pt) // every origin unfilled again
		d := env.e.disc
		errs := make(chan string, workers*len(reqs))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i, req := range reqs {
					if got := env.e.discPartitions(d, new(candWS), req, 900); !slices.Equal(got, wantParts[i]) {
						errs <- fmt.Sprintf("origin %d: disc %v, want %v", req.Origin, got, wantParts[i])
					}
					if got := ids(env.e.CandidateTaxis(req, 0)); !slices.Equal(got, wantIDs[i]) {
						errs <- fmt.Sprintf("request %d: candidates %v, reference %v", req.ID, got, wantIDs[i])
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatalf("round %d: %s", round, msg)
		}
		for i, req := range reqs {
			if p := d.near[req.Origin].Load(); p == nil || !slices.Equal(*p, wantParts[i]) {
				t.Fatalf("round %d: slot of origin %d holds %v, want %v", round, req.Origin, p, wantParts[i])
			}
		}
	}
}

// TestIndexMemoryBytesCountsDiscMemo: the Table IV figure carries one
// pointer per vertex from construction and grows by each list a search
// fills.
func TestIndexMemoryBytesCountsDiscMemo(t *testing.T) {
	env := newTestEnv(t, func(c *Config) { c.SearchRangeMeters = 900 })
	w := worldOf(env)
	n := env.g.NumVertices()
	if got, want := env.e.disc.memoryBytes(), int64(n)*8; got != want {
		t.Fatalf("empty memo counts %d bytes, want %d (8 per vertex)", got, want)
	}
	base := env.e.IndexMemoryBytes()
	var filled int64
	for o := 0; o < n; o += 7 {
		req := w.request(env.e.Router(), int64(o+1), roadnet.VertexID(o), roadnet.VertexID((o+1)%n), 0, 2, env.e.Config().SpeedMps)
		env.e.CandidateTaxis(req, 0)
		filled += 24 + 4*int64(len(*env.e.disc.near[o].Load()))
	}
	if got := env.e.IndexMemoryBytes() - base; got != filled {
		t.Fatalf("searches grew IndexMemoryBytes by %d, the filled lists hold %d", got, filled)
	}
}

// TestIDSetDistinctMatchesSortCompact holds the search's dedupe to sort +
// Compact on heavily duplicated lists: small, negative and extreme IDs, and
// keys forced onto one probe chain that wraps past the table's end.
func TestIDSetDistinctMatchesSortCompact(t *testing.T) {
	var s idSet
	check := func(what string, ids []int64) {
		t.Helper()
		want := slices.Clone(ids)
		slices.Sort(want)
		want = slices.Compact(want)
		got := s.distinct(slices.Clone(ids))
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: distinct gives %v, sort+Compact %v", what, got, want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		keys := make([]int64, 1+rng.Intn(120))
		for i := range keys {
			switch rng.Intn(4) {
			case 0:
				keys[i] = int64(rng.Intn(50))
			case 1:
				keys[i] = -int64(rng.Intn(50))
			case 2:
				keys[i] = []int64{math.MinInt64, math.MaxInt64, 1 << 62, -(1 << 62)}[rng.Intn(4)]
			default:
				keys[i] = int64(rng.Uint64())
			}
		}
		ids := make([]int64, rng.Intn(4*len(keys)+1))
		for i := range ids {
			ids[i] = keys[rng.Intn(len(keys))]
		}
		check("random", ids)
	}

	const reps = 4
	var chain []int64
	s = idSet{} // sized for this list alone, so the home slots below are the ones distinct probes
	s.begin(24 * reps)
	last := len(s.keys) - 1
	for _, base := range []int64{math.MinInt64, -1 << 40, -1 << 20, 0, 1 << 50, math.MaxInt64 - 1<<24} {
		for k, found := int64(0), 0; found < 4; k++ {
			if s.home(base+k) == last {
				chain = append(chain, base+k)
				found++
			}
		}
	}
	var ids []int64
	for r := 0; r < reps; r++ {
		ids = append(ids, chain...)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	check("one probe chain", ids)
	if got := len(s.distinct(slices.Clone(ids))); got != len(chain) {
		t.Fatalf("one probe chain: %d distinct, want %d", got, len(chain))
	}
}

// TestIDSetGenerationWrap: a set about to wrap its generation must not read
// slots stamped 2^32 searches ago as live.
func TestIDSetGenerationWrap(t *testing.T) {
	ids := []int64{5, -3, 1 << 60, 5}
	var s idSet
	s.begin(len(ids))
	for i := range s.keys { // every slot holds a key of the coming list, stamped 0
		s.keys[i] = ids[i%3]
	}
	s.gen = math.MaxUint32
	got := s.distinct(slices.Clone(ids))
	if s.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", s.gen)
	}
	slices.Sort(got)
	if want := []int64{-3, 5, 1 << 60}; !slices.Equal(got, want) {
		t.Fatalf("after wrap: distinct gives %v, want %v", got, want)
	}
}
