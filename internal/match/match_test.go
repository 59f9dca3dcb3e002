package match

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/partition"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// testEnv bundles everything a matching test needs.
type testEnv struct {
	g   *roadnet.Graph
	spx *roadnet.SpatialIndex
	pt  *partition.Partitioning
	e   *Engine
}

func newTestEnv(t testing.TB, cfgMut func(*Config)) *testEnv {
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
		UniformFrac: 0.15, MinTripMeters: 200, Seed: 1,
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
	cfg := DefaultConfig()
	cfg.SearchRangeMeters = 3000
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	e, err := NewEngine(pt, spx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{g: g, spx: spx, pt: pt, e: e}
}

// request builds a valid request between two vertices with slack factor
// rho relative to the direct cost.
func (env *testEnv) request(id int64, o, d roadnet.VertexID, releaseSeconds, rho float64) *fleet.Request {
	direct := env.e.Router().Cost(o, d)
	speed := env.e.Config().SpeedMps
	directSec := direct / speed
	return &fleet.Request{
		ID:           fleet.RequestID(id),
		ReleaseAt:    time.Duration(releaseSeconds * float64(time.Second)),
		Origin:       o,
		Dest:         d,
		Deadline:     time.Duration((releaseSeconds + directSec*rho) * float64(time.Second)),
		DirectMeters: direct,
		Passengers:   1,
		OriginPt:     env.g.Point(o),
		DestPt:       env.g.Point(d),
	}
}

// vertexNear returns a vertex near the given fractional position of the
// city bounding box.
func (env *testEnv) vertexNear(t testing.TB, fLat, fLng float64) roadnet.VertexID {
	t.Helper()
	min, max := env.g.Bounds()
	p := geo.Point{
		Lat: min.Lat + fLat*(max.Lat-min.Lat),
		Lng: min.Lng + fLng*(max.Lng-min.Lng),
	}
	v, ok := env.spx.NearestVertex(p)
	if !ok {
		t.Fatal("no vertex")
	}
	return v
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := []func(*Config){
		func(c *Config) { c.SpeedMps = 0 },
		func(c *Config) { c.SearchRangeMeters = 0 },
		func(c *Config) { c.Lambda = 2 },
		func(c *Config) { c.HorizonSeconds = 0 },
	}
	for i, m := range mut {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPartitionFilterKeepsEndpointsAndPrunes(t *testing.T) {
	env := newTestEnv(t, nil)
	u := env.vertexNear(t, 0.1, 0.1)
	v := env.vertexNear(t, 0.9, 0.9)
	kept := env.e.PartitionFilter(u, v)
	if len(kept) == 0 {
		t.Fatal("filter kept nothing")
	}
	has := map[partition.ID]bool{}
	for _, p := range kept {
		has[p] = true
	}
	if !has[env.pt.PartitionOf(u)] || !has[env.pt.PartitionOf(v)] {
		t.Fatal("endpoint partitions dropped")
	}
	if len(kept) >= env.pt.NumPartitions() {
		t.Skipf("filter kept all %d partitions on this layout", len(kept))
	}
}

func TestPartitionFilterRespectsCostRule(t *testing.T) {
	env := newTestEnv(t, nil)
	u := env.vertexNear(t, 0.1, 0.5)
	v := env.vertexNear(t, 0.9, 0.5)
	pa := env.pt.PartitionOf(u)
	pb := env.pt.PartitionOf(v)
	direct := env.pt.LandmarkCost(pa, pb)
	budget := (1 + filterEpsilon) * direct
	for _, p := range env.e.PartitionFilter(u, v) {
		if p == pa || p == pb {
			continue
		}
		through := env.pt.LandmarkCost(pa, p) + env.pt.LandmarkCost(p, pb)
		if through > budget+1e-6 {
			t.Fatalf("partition %d violates cost rule: %v > %v", p, through, budget)
		}
	}
}

func TestPartitionFilterCached(t *testing.T) {
	env := newTestEnv(t, nil)
	u := env.vertexNear(t, 0.2, 0.2)
	v := env.vertexNear(t, 0.8, 0.8)
	a := env.e.PartitionFilter(u, v)
	b := env.e.PartitionFilter(u, v)
	if len(a) != len(b) {
		t.Fatal("cache inconsistency")
	}
}

func TestBasicLegIsOptimal(t *testing.T) {
	// Basic legs match the paper's cached-shortest-path evaluation setup.
	env := newTestEnv(t, nil)
	u := env.vertexNear(t, 0.3, 0.3)
	v := env.vertexNear(t, 0.7, 0.6)
	cost, ok := env.e.BasicLegCost(u, v)
	if !ok {
		t.Fatal("no basic leg")
	}
	if best := env.e.Router().Cost(u, v); math.Abs(cost-best) > 1e-9 {
		t.Fatalf("basic leg %v != shortest path %v", cost, best)
	}
	path, pcost, ok := env.e.BasicLegPath(u, v)
	if !ok || math.Abs(pcost-cost) > 1e-9 {
		t.Fatalf("path cost %v vs %v", pcost, cost)
	}
	if actual, err := env.g.PathCost(path); err != nil || math.Abs(actual-cost) > 1e-9 {
		t.Fatalf("path inconsistent: %v, %v", actual, err)
	}
	if c, ok := env.e.BasicLegCost(u, u); !ok || c != 0 {
		t.Fatalf("self leg = %v, %v", c, ok)
	}
}

// filteredLeg is Alg. 3's search confined to the partitions Alg. 2 keeps
// for the pair, the restriction probabilistic legs also route within.
func filteredLeg(e *Engine, u, v roadnet.VertexID) (float64, []roadnet.VertexID, bool) {
	allowed := e.allowedSet(e.PartitionFilter(u, v))
	return e.g.WeightedShortestPath(u, v, func(x roadnet.VertexID) bool {
		return allowed[e.pt.PartitionOf(x)]
	}, nil)
}

// TestFilteredLegConsistent pins that the Alg. 2 partitions keep a route
// between a cross-town pair, that its cost is its path's cost, and that it
// never beats the true shortest path.
func TestFilteredLegConsistent(t *testing.T) {
	env := newTestEnv(t, nil)
	u := env.vertexNear(t, 0.3, 0.3)
	v := env.vertexNear(t, 0.7, 0.6)
	cost, path, ok := filteredLeg(env.e, u, v)
	if !ok {
		t.Fatal("the filtered partitions disconnect the pair")
	}
	actual, err := env.g.PathCost(path)
	if err != nil || actual != cost {
		t.Fatalf("path inconsistent: %v, %v", actual, err)
	}
	if best := env.e.Router().Cost(u, v); cost < best {
		t.Fatalf("filtered cost %v below optimal %v", cost, best)
	}
	if c, p, ok := filteredLeg(env.e, u, u); !ok || c != 0 || len(p) != 1 {
		t.Fatalf("self leg = %v, %v, %v", c, p, ok)
	}
}

func TestFilteredLegNearOptimal(t *testing.T) {
	// With epsilon = 1.0 the filtered subgraph should rarely cost much
	// more than the true shortest path.
	env := newTestEnv(t, nil)
	worst, sum, n := 1.0, 0.0, 0
	for i := 0; i < 20; i++ {
		u := env.vertexNear(t, 0.1+0.04*float64(i), 0.2)
		v := env.vertexNear(t, 0.9-0.04*float64(i), 0.8)
		if u == v {
			continue
		}
		cost, _, ok := filteredLeg(env.e, u, v)
		if !ok {
			continue
		}
		best := env.e.Router().Cost(u, v)
		if best <= 0 {
			continue
		}
		ratio := cost / best
		sum += ratio
		n++
		if ratio > worst {
			worst = ratio
		}
	}
	// With only ~12 coarse partitions the direction rule occasionally
	// prunes a partition the optimal path clips; the paper's 150-partition
	// setup is finer. Worst case stays bounded, the mean near-optimal.
	if worst > 1.5 {
		t.Fatalf("filtered routing %vx worse than optimal", worst)
	}
	if n > 0 && sum/float64(n) > 1.15 {
		t.Fatalf("mean filtered-routing overhead %vx", sum/float64(n))
	}
}

func TestCandidateTaxisRules(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	o := env.vertexNear(t, 0.5, 0.5)
	d := env.vertexNear(t, 0.5, 0.9) // eastbound request
	req := env.request(1, o, d, now, 1.5)

	// Empty taxi near the origin: must be a candidate.
	nearIdle := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.52, 0.52))
	env.e.AddTaxi(nearIdle, now)
	// Empty taxi far away: outside the disc.
	farIdle := fleet.NewTaxi(env.g, 2, 3, env.vertexNear(t, 0.02, 0.02))
	env.e.AddTaxi(farIdle, now)

	cands := env.e.CandidateTaxis(req, now)
	ids := map[int64]bool{}
	for _, c := range cands {
		ids[c.ID] = true
	}
	if !ids[1] {
		t.Fatal("nearby idle taxi not a candidate")
	}
	if ids[2] {
		t.Fatal("distant idle taxi offered as candidate")
	}
}

func TestCandidateTaxisDirectionFilter(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	o := env.vertexNear(t, 0.5, 0.4)
	d := env.vertexNear(t, 0.5, 0.95) // eastbound
	req := env.request(1, o, d, now, 1.5)

	// Occupied taxi going the same way (east): candidate.
	tEast := fleet.NewTaxi(env.g, 10, 3, env.vertexNear(t, 0.5, 0.45))
	rEast := env.request(100, env.vertexNear(t, 0.5, 0.5), env.vertexNear(t, 0.5, 0.9), now, 1.6)
	assignRequest(t, env, tEast, rEast, now)

	// Occupied taxi going the opposite way (west): must be filtered out.
	tWest := fleet.NewTaxi(env.g, 11, 3, env.vertexNear(t, 0.5, 0.5))
	rWest := env.request(101, env.vertexNear(t, 0.5, 0.45), env.vertexNear(t, 0.5, 0.05), now, 1.6)
	assignRequest(t, env, tWest, rWest, now)

	cands := env.e.CandidateTaxis(req, now)
	ids := map[int64]bool{}
	for _, c := range cands {
		ids[c.ID] = true
	}
	if !ids[10] {
		t.Fatal("same-direction taxi filtered out")
	}
	if ids[11] {
		t.Fatal("opposite-direction taxi survived the mobility-cluster filter")
	}
}

// assignRequest dispatches req and commits it onto taxi tx (registering
// the taxi first if needed), failing the test when the dispatcher picks a
// different taxi.
func assignRequest(t testing.TB, env *testEnv, tx *fleet.Taxi, req *fleet.Request, now float64) {
	t.Helper()
	if _, ok := env.e.Taxi(tx.ID); !ok {
		env.e.AddTaxi(tx, now)
	}
	params := tx.EvalParamsAt(now, env.e.Config().SpeedMps)
	sched, _, ok := fleet.BestInsertion(tx.Schedule(), req, env.e.BasicLegCost, params, false)
	if !ok {
		t.Fatalf("cannot assign request %d to taxi %d", req.ID, tx.ID)
	}
	legs, ok := fleet.BuildLegs(env.e.router, tx.NextVertex(), sched)
	if !ok {
		t.Fatal("legs unroutable")
	}
	if err := env.e.Commit(Assignment{Taxi: tx, Req: req, Events: sched, Legs: legs}, now); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateTaxisCapacityFilter(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	o := env.vertexNear(t, 0.5, 0.5)
	d := env.vertexNear(t, 0.5, 0.9)

	full := fleet.NewTaxi(env.g, 20, 1, env.vertexNear(t, 0.5, 0.52))
	rFull := env.request(200, env.vertexNear(t, 0.5, 0.55), env.vertexNear(t, 0.5, 0.85), now, 1.6)
	assignRequest(t, env, full, rFull, now)
	// Seat the passenger so IdleSeats is 0.
	for !full.Empty() && full.OccupiedSeats() == 0 {
		full.Advance(100)
	}
	if full.OccupiedSeats() != 1 {
		t.Fatal("setup: passenger not aboard")
	}

	req := env.request(1, o, d, now+10, 1.5)
	for _, c := range env.e.CandidateTaxis(req, now+10) {
		if c.ID == 20 {
			t.Fatal("full taxi offered as candidate")
		}
	}
}

func TestDispatchServesSimpleRequest(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	taxi := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.5, 0.5))
	env.e.AddTaxi(taxi, now)
	req := env.request(1, env.vertexNear(t, 0.52, 0.52), env.vertexNear(t, 0.8, 0.8), now, 1.5)
	a, ok := env.e.Dispatch(req, now, false)
	if !ok {
		t.Fatal("dispatch failed")
	}
	if a.Taxi.ID != 1 {
		t.Fatalf("dispatched taxi %d", a.Taxi.ID)
	}
	if len(a.Events) != 2 || a.Events[0].Kind != fleet.Pickup {
		t.Fatalf("events = %v", a.Events)
	}
	if a.DetourMeters <= 0 {
		t.Fatalf("detour = %v for an idle taxi", a.DetourMeters)
	}
	if a.Candidates < 1 {
		t.Fatal("candidate count not recorded")
	}
	if err := env.e.Commit(a, now); err != nil {
		t.Fatal(err)
	}
	if taxi.Empty() {
		t.Fatal("commit did not install plan")
	}
	// Route legs must connect and end at the dropoff.
	route := taxi.Route()
	if route[len(route)-1] != req.Dest {
		t.Fatalf("route ends at %d, want %d", route[len(route)-1], req.Dest)
	}
}

func TestDispatchPrefersLowerDetour(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	// Taxi A idles right at the request origin, taxi B much farther but
	// still in range: A must win on detour.
	o := env.vertexNear(t, 0.5, 0.5)
	d := env.vertexNear(t, 0.8, 0.8)
	tA := fleet.NewTaxi(env.g, 1, 3, o)
	tB := fleet.NewTaxi(env.g, 2, 3, env.vertexNear(t, 0.35, 0.35))
	env.e.AddTaxi(tA, now)
	env.e.AddTaxi(tB, now)
	req := env.request(1, o, d, now, 1.5)
	a, ok := env.e.Dispatch(req, now, false)
	if !ok {
		t.Fatal("dispatch failed")
	}
	if a.Taxi.ID != 1 {
		t.Fatalf("picked taxi %d, want the zero-pickup-distance one", a.Taxi.ID)
	}
}

func TestDispatchRideSharing(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	o1 := env.vertexNear(t, 0.2, 0.2)
	d1 := env.vertexNear(t, 0.8, 0.8)
	taxi := fleet.NewTaxi(env.g, 1, 3, o1)
	env.e.AddTaxi(taxi, now)
	r1 := env.request(1, o1, d1, now, 1.5)
	a1, ok := env.e.Dispatch(r1, now, false)
	if !ok {
		t.Fatal("first dispatch failed")
	}
	if err := env.e.Commit(a1, now); err != nil {
		t.Fatal(err)
	}
	// Second request along the same corridor must share the same taxi.
	r2 := env.request(2, env.vertexNear(t, 0.3, 0.3), env.vertexNear(t, 0.7, 0.7), now+5, 1.8)
	a2, ok := env.e.Dispatch(r2, now+5, false)
	if !ok {
		t.Fatal("second dispatch found no taxi")
	}
	if a2.Taxi.ID != 1 {
		t.Fatalf("sharing taxi = %d", a2.Taxi.ID)
	}
	if err := env.e.Commit(a2, now+5); err != nil {
		t.Fatal(err)
	}
	if len(taxi.Schedule()) != 4 {
		t.Fatalf("schedule has %d events, want 4", len(taxi.Schedule()))
	}
	if !fleet.ValidSequence(taxi.Schedule()) {
		t.Fatal("invalid shared schedule")
	}
}

func TestDispatchNoTaxiAvailable(t *testing.T) {
	env := newTestEnv(t, nil)
	req := env.request(1, env.vertexNear(t, 0.5, 0.5), env.vertexNear(t, 0.8, 0.8), 0, 1.5)
	if _, ok := env.e.Dispatch(req, 0, false); ok {
		t.Fatal("dispatch succeeded with no taxis")
	}
}

func TestDispatchExpiredRequest(t *testing.T) {
	env := newTestEnv(t, nil)
	taxi := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.5, 0.5))
	env.e.AddTaxi(taxi, 0)
	req := env.request(1, env.vertexNear(t, 0.5, 0.52), env.vertexNear(t, 0.8, 0.8), 0, 1.2)
	// Ask long after the pickup deadline passed.
	late := req.Deadline.Seconds() + 100
	if _, ok := env.e.Dispatch(req, late, false); ok {
		t.Fatal("expired request dispatched")
	}
}

func TestDispatchExactlyAtPickupDeadline(t *testing.T) {
	env := newTestEnv(t, nil)
	o := env.vertexNear(t, 0.5, 0.5)
	d := env.vertexNear(t, 0.7, 0.7)
	direct, ok := env.e.BasicLegCost(o, d)
	if !ok {
		t.Fatal("unroutable o->d")
	}
	speed := env.e.Config().SpeedMps
	// Inflate DirectMeters slightly so the delivery deadline keeps slack
	// when dispatching at the last pickup instant; the boundary under test
	// is the pickup deadline.
	req := &fleet.Request{
		ID:           1,
		Origin:       o,
		Dest:         d,
		Deadline:     time.Duration(2.4 * direct / speed * float64(time.Second)),
		DirectMeters: 1.2 * direct,
		Passengers:   1,
		OriginPt:     env.g.Point(o),
		DestPt:       env.g.Point(d),
	}
	now := req.PickupDeadline(speed).Seconds()
	taxi := fleet.NewTaxi(env.g, 1, 3, o)
	env.e.AddTaxi(taxi, now)

	// The deadline convention is inclusive: at pickupDeadline == now the
	// search radius stays open and a taxi already at the origin serves the
	// request with pickup arrival exactly at the deadline.
	if r := env.e.searchRadius(req, now); r != env.e.Config().SearchRangeMeters {
		t.Fatalf("searchRadius at exact pickup deadline = %v, want %v", r, env.e.Config().SearchRangeMeters)
	}
	a, ok := env.e.Dispatch(req, now, false)
	if !ok {
		t.Fatal("dispatch at exactly the pickup deadline failed")
	}
	if a.Taxi.ID != 1 {
		t.Fatalf("dispatched taxi %d", a.Taxi.ID)
	}
	// Strictly past the deadline the request is expired: radius collapses
	// and dispatch fails.
	if r := env.e.searchRadius(req, now+1); r != 0 {
		t.Fatalf("searchRadius past pickup deadline = %v, want 0", r)
	}
	if _, ok := env.e.Dispatch(req, now+1, false); ok {
		t.Fatal("dispatch succeeded past the pickup deadline")
	}
}

// pruneDeltas runs fn and returns how much each CandidateTaxis pruning
// counter advanced during it.
func pruneDeltas(env *testEnv, fn func()) (dir, capacity, reach int64) {
	before := env.e.Stats()
	fn()
	after := env.e.Stats()
	return after.PrunedByDirection - before.PrunedByDirection,
		after.PrunedByCapacity - before.PrunedByCapacity,
		after.PrunedByReachability - before.PrunedByReachability
}

func TestPruneCounterDirection(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	req := env.request(1, env.vertexNear(t, 0.5, 0.4), env.vertexNear(t, 0.5, 0.95), now, 1.5)

	// One occupied taxi heading the same way, one heading the opposite way:
	// exactly the opposite-direction taxi trips rule 1.
	tEast := fleet.NewTaxi(env.g, 10, 3, env.vertexNear(t, 0.5, 0.45))
	assignRequest(t, env, tEast, env.request(100, env.vertexNear(t, 0.5, 0.5), env.vertexNear(t, 0.5, 0.9), now, 1.6), now)
	tWest := fleet.NewTaxi(env.g, 11, 3, env.vertexNear(t, 0.5, 0.5))
	assignRequest(t, env, tWest, env.request(101, env.vertexNear(t, 0.5, 0.45), env.vertexNear(t, 0.5, 0.05), now, 1.6), now)

	dir, capacity, reach := pruneDeltas(env, func() {
		if cands := env.e.CandidateTaxis(req, now); len(cands) != 1 || cands[0].ID != 10 {
			t.Fatalf("candidates = %v, want just taxi 10", cands)
		}
	})
	if dir != 1 || capacity != 0 || reach != 0 {
		t.Fatalf("prune deltas (direction, capacity, reachability) = (%d, %d, %d), want (1, 0, 0)", dir, capacity, reach)
	}
}

func TestPruneCounterCapacity(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	// A capacity-1 taxi with its passenger aboard, moving the same
	// direction as the probe request so rule 1 passes and rule 2 fires.
	full := fleet.NewTaxi(env.g, 20, 1, env.vertexNear(t, 0.5, 0.52))
	assignRequest(t, env, full, env.request(200, env.vertexNear(t, 0.5, 0.55), env.vertexNear(t, 0.5, 0.85), now, 1.6), now)
	for !full.Empty() && full.OccupiedSeats() == 0 {
		full.Advance(100)
	}
	if full.OccupiedSeats() != 1 {
		t.Fatal("setup: passenger not aboard")
	}

	req := env.request(1, env.vertexNear(t, 0.5, 0.5), env.vertexNear(t, 0.5, 0.9), now+10, 1.5)
	dir, capacity, reach := pruneDeltas(env, func() {
		if cands := env.e.CandidateTaxis(req, now+10); len(cands) != 0 {
			t.Fatalf("candidates = %v, want none", cands)
		}
	})
	if dir != 0 || capacity != 1 || reach != 0 {
		t.Fatalf("prune deltas (direction, capacity, reachability) = (%d, %d, %d), want (0, 1, 0)", dir, capacity, reach)
	}
}

func TestPruneCounterReachability(t *testing.T) {
	env := newTestEnv(t, nil)
	o := env.vertexNear(t, 0.5, 0.5)
	d := env.vertexNear(t, 0.9, 0.9)
	// The taxi must sit in a different partition than the origin so the
	// partition index reports no arrival there and rule 3 falls through to
	// the straight-line lower bound.
	tv := o
	for _, f := range []struct{ lat, lng float64 }{{0.5, 0.7}, {0.5, 0.8}, {0.7, 0.5}, {0.8, 0.5}, {0.2, 0.5}} {
		v := env.vertexNear(t, f.lat, f.lng)
		if env.pt.PartitionOf(v) != env.pt.PartitionOf(o) {
			tv = v
			break
		}
	}
	if tv == o {
		t.Fatal("setup: no probe vertex outside the origin partition")
	}
	speed := env.e.Config().SpeedMps
	dist := geo.Equirect(env.g.Point(o), env.g.Point(tv))
	direct := env.e.Router().Cost(o, d)
	// Pickup deadline at half the taxi's straight-line travel time to the
	// origin: inside the search disc, empty (rules 1-2 pass), but even the
	// distance lower bound says it cannot make the pickup.
	pd := 0.5 * dist / speed
	req := &fleet.Request{
		ID:           1,
		Origin:       o,
		Dest:         d,
		Deadline:     time.Duration((pd + direct/speed) * float64(time.Second)),
		DirectMeters: direct,
		Passengers:   1,
		OriginPt:     env.g.Point(o),
		DestPt:       env.g.Point(d),
	}
	taxi := fleet.NewTaxi(env.g, 30, 3, tv)
	env.e.AddTaxi(taxi, 0)

	dir, capacity, reach := pruneDeltas(env, func() {
		if cands := env.e.CandidateTaxis(req, 0); len(cands) != 0 {
			t.Fatalf("candidates = %v, want none", cands)
		}
	})
	if dir != 0 || capacity != 0 || reach != 1 {
		t.Fatalf("prune deltas (direction, capacity, reachability) = (%d, %d, %d), want (0, 0, 1)", dir, capacity, reach)
	}
}

func TestTryServeOffline(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	o := env.vertexNear(t, 0.3, 0.3)
	d := env.vertexNear(t, 0.8, 0.8)
	taxi := fleet.NewTaxi(env.g, 1, 3, o)
	env.e.AddTaxi(taxi, now)
	r1 := env.request(1, o, d, now, 1.6)
	a, ok := env.e.Dispatch(r1, now, false)
	if !ok {
		t.Fatal("setup dispatch failed")
	}
	if err := env.e.Commit(a, now); err != nil {
		t.Fatal(err)
	}
	// Offline request on the way.
	off := env.request(2, env.vertexNear(t, 0.4, 0.4), env.vertexNear(t, 0.7, 0.7), now, 1.6)
	off.Offline = true
	if !env.e.TryServeOffline(taxi, off, now) {
		t.Fatal("compatible offline request rejected")
	}
	if len(taxi.Schedule()) != 4 {
		t.Fatalf("schedule events = %d", len(taxi.Schedule()))
	}
	// A full taxi rejects.
	small := fleet.NewTaxi(env.g, 2, 1, o)
	env.e.AddTaxi(small, now)
	r3 := env.request(3, o, d, now, 1.6)
	assignRequest(t, env, small, r3, now)
	for small.OccupiedSeats() == 0 {
		small.Advance(100)
	}
	off2 := env.request(4, env.vertexNear(t, 0.4, 0.4), env.vertexNear(t, 0.7, 0.7), now, 1.6)
	off2.Offline = true
	if env.e.TryServeOffline(small, off2, now) {
		t.Fatal("full taxi accepted offline request")
	}
}

func TestProbEnabled(t *testing.T) {
	env := newTestEnv(t, nil)
	taxi := fleet.NewTaxi(env.g, 1, 4, env.vertexNear(t, 0.5, 0.5))
	if !env.e.ProbEnabled(taxi) {
		t.Fatal("empty taxi not prob-enabled")
	}
}

func TestProbabilisticLegValidAndBounded(t *testing.T) {
	env := newTestEnv(t, nil)
	u := env.vertexNear(t, 0.2, 0.2)
	v := env.vertexNear(t, 0.8, 0.8)
	vec := geo.NewMobilityVector(env.g.Point(u), env.g.Point(v))
	direct := env.e.Router().Cost(u, v)
	path, cost, ok := env.e.ProbabilisticLeg(u, v, vec, direct*2)
	if !ok {
		t.Fatal("probabilistic leg failed")
	}
	if path[0] != u || path[len(path)-1] != v {
		t.Fatal("leg endpoints wrong")
	}
	if cost > direct*2 {
		t.Fatalf("leg cost %v exceeds budget %v", cost, direct*2)
	}
	actual, err := env.g.PathCost(path)
	if err != nil || math.Abs(actual-cost) > 1e-9 {
		t.Fatalf("leg path inconsistent: %v %v", actual, err)
	}
	// An impossible budget must fail.
	if _, _, ok := env.e.ProbabilisticLeg(u, v, vec, direct*0.5); ok {
		t.Fatal("leg beat the shortest path")
	}
	// Self leg.
	if p, c, ok := env.e.ProbabilisticLeg(u, u, vec, 100); !ok || c != 0 || len(p) != 1 {
		t.Fatal("self probabilistic leg wrong")
	}
}

func TestProbabilisticPlanFeasible(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	o := env.vertexNear(t, 0.3, 0.3)
	d := env.vertexNear(t, 0.8, 0.8)
	taxi := fleet.NewTaxi(env.g, 1, 4, o)
	env.e.AddTaxi(taxi, now)
	req := env.request(1, o, d, now, 1.8)
	events := []fleet.Event{{Req: req, Kind: fleet.Pickup}, {Req: req, Kind: fleet.Dropoff}}
	legs, eval, ok := env.e.ProbabilisticPlan(events, taxi, now)
	if !ok {
		t.Fatal("probabilistic plan failed")
	}
	if !eval.Feasible {
		t.Fatal("plan marked infeasible")
	}
	if len(legs) != 2 {
		t.Fatalf("legs = %d", len(legs))
	}
	// The probabilistic route may detour but stays within the deadline.
	if eval.ArrivalSeconds[1] > req.Deadline.Seconds() {
		t.Fatal("delivery past deadline")
	}
	if err := taxi.SetPlan(events, legs); err != nil {
		t.Fatalf("plan not installable: %v", err)
	}
}

func TestDispatchProbabilisticMode(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	o := env.vertexNear(t, 0.3, 0.3)
	taxi := fleet.NewTaxi(env.g, 1, 4, o)
	env.e.AddTaxi(taxi, now)
	req := env.request(1, env.vertexNear(t, 0.35, 0.35), env.vertexNear(t, 0.75, 0.75), now, 1.8)
	a, ok := env.e.Dispatch(req, now, true)
	if !ok {
		t.Fatal("probabilistic dispatch failed")
	}
	if err := env.e.Commit(a, now); err != nil {
		t.Fatal(err)
	}
	// Probabilistic route must still respect deadline feasibility.
	if !a.Eval.Feasible {
		t.Fatal("infeasible probabilistic assignment")
	}
}

func TestCruisePlan(t *testing.T) {
	env := newTestEnv(t, nil)
	taxi := fleet.NewTaxi(env.g, 1, 4, env.vertexNear(t, 0.1, 0.1))
	path, ok := env.e.CruisePlan(taxi)
	if !ok {
		t.Skip("no cruise target on this layout")
	}
	if path[0] != taxi.At() {
		t.Fatal("cruise must start at taxi position")
	}
	if err := taxi.SetPlan(nil, [][]roadnet.VertexID{path}); err != nil {
		t.Fatalf("cruise not installable: %v", err)
	}
	cost, err := env.g.PathCost(path)
	if err != nil {
		t.Fatal(err)
	}
	if cost > cruiseMeters {
		t.Fatalf("cruise of %v m over its %v m bound", cost, float64(cruiseMeters))
	}
}

// TestSchemeSingleCruisePlan covers the cruise path: after observing
// demand, PlanIdle installs a cruise route on an idle taxi.
func TestSchemeSingleCruisePlan(t *testing.T) {
	env := newTestEnv(t, nil)
	s := NewScheme(env.e, true)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 6; i++ {
		s.AddTaxi(fleet.NewTaxi(env.g, int64(i+1), 3, roadnet.VertexID(rng.Intn(env.g.NumVertices()))), 0)
	}
	var now float64
	for _, r := range seededWorkload(env, 40, 9) {
		now = r.ReleaseAt.Seconds()
		s.OnRequest(context.Background(), r, now)
	}
	planned := false
	for i := 0; i < 4 && !planned; i++ {
		idle := fleet.NewTaxi(env.g, int64(200+i), 3, env.vertexNear(t, 0.2+0.2*float64(i), 0.5))
		s.AddTaxi(idle, now)
		if s.PlanIdle(idle, now) {
			planned = len(idle.Route()) > 1
		}
	}
	if !planned {
		t.Fatal("no idle taxi ever received a cruise plan")
	}
}

// TestSchemeLifecycle drives the full simulation-facing contract (Scheme)
// over the engine: online dispatch, taxi advancement with border-crossing
// reindexing, batch re-dispatch, street hails, request completion, and
// probabilistic idle cruising.
func TestSchemeLifecycle(t *testing.T) {
	env := newTestEnv(t, nil)
	s := NewScheme(env.e, true)
	if s.Name() != "mT-Share-pro" {
		t.Fatalf("Name = %q", s.Name())
	}
	if !s.SupportsOfflineDispatch() {
		t.Fatal("offline dispatch must be supported")
	}

	rng := rand.New(rand.NewSource(4))
	taxis := make([]*fleet.Taxi, 10)
	for i := range taxis {
		taxis[i] = fleet.NewTaxi(env.g, int64(i+1), 3, roadnet.VertexID(rng.Intn(env.g.NumVertices())))
		s.AddTaxi(taxis[i], 0)
	}
	if env.e.NumTaxis() != len(taxis) {
		t.Fatalf("NumTaxis = %d, want %d", env.e.NumTaxis(), len(taxis))
	}

	served := 0
	var servedReqs []*fleet.Request
	var now float64
	for _, r := range seededWorkload(env, 60, 9) {
		now = r.ReleaseAt.Seconds()
		if out := s.OnRequest(context.Background(), r, now); out.Served {
			served++
			servedReqs = append(servedReqs, r)
		}
		for _, tx := range taxis {
			tx.Advance(120)
			s.OnTaxiAdvanced(tx, now)
		}
	}
	if served == 0 {
		t.Fatal("nothing served through the scheme")
	}

	// Batch re-dispatch through the scheme surface.
	batch := seededWorkload(env, 8, 23)
	if res := s.OnBatch(batch, now); len(res) != len(batch) {
		t.Fatalf("OnBatch returned %d results for %d requests", len(res), len(batch))
	}

	// Street hail: an insertion into a specific taxi's schedule.
	hailed := false
	for i, tx := range taxis {
		o := tx.At()
		dst := env.vertexNear(t, 0.9, 0.1)
		if o == dst || math.IsInf(env.e.Router().Cost(o, dst), 1) {
			continue
		}
		if s.TryServeOffline(tx, env.request(int64(5000+i), o, dst, now, 2.5), now) {
			hailed = true
			break
		}
	}
	if !hailed {
		t.Fatal("no taxi accepted a roadside hail at its own position")
	}

	// Completion unwinds the mobility-cluster bookkeeping.
	for _, r := range servedReqs {
		s.OnRequestCompleted(r, now)
	}
}

// TestDrainRefusesCommit locks in the shutdown bugfix: after Drain no
// in-flight assignment may commit. The subtest keeps the name it had
// when a sharded arm ran beside it, so the test id is unchanged.
func TestDrainRefusesCommit(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		env := newTestEnv(t, nil)
		placeFleet(env, 8, 42)
		var (
			a   Assignment
			ok  bool
			now float64
		)
		for _, r := range seededWorkload(env, 10, 7) {
			now = r.ReleaseAt.Seconds()
			if a, ok = env.e.Dispatch(r, now, false); ok {
				break
			}
		}
		if !ok {
			t.Fatal("no dispatchable request in the seeded stream")
		}
		env.e.Drain()
		if err := env.e.Commit(a, now); !errors.Is(err, ErrDispatcherClosed) {
			t.Fatalf("Commit after Drain = %v, want ErrDispatcherClosed", err)
		}
	})
}

func TestReindexTaxiLifecycle(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	taxi := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.5, 0.5))
	env.e.AddTaxi(taxi, now)
	if env.e.NumTaxis() != 1 {
		t.Fatal("taxi not registered")
	}
	if _, ok := env.e.Taxi(1); !ok {
		t.Fatal("Taxi lookup failed")
	}
	// Empty taxi must not sit in any mobility cluster.
	if st := env.e.ClusterStats(); st.Taxis != 0 {
		t.Fatalf("idle taxi in %d clusters", st.Taxis)
	}
	req := env.request(1, env.vertexNear(t, 0.52, 0.52), env.vertexNear(t, 0.8, 0.8), now, 1.5)
	a, ok := env.e.Dispatch(req, now, false)
	if !ok {
		t.Fatal("dispatch failed")
	}
	if err := env.e.Commit(a, now); err != nil {
		t.Fatal(err)
	}
	if st := env.e.ClusterStats(); st.Taxis != 1 || st.Requests != 1 {
		t.Fatalf("cluster stats after commit: %+v", st)
	}
	// Finish the ride: reindex drops the taxi from clusters.
	for !taxi.Empty() {
		taxi.Advance(500)
	}
	env.e.ReindexTaxi(taxi, 1000)
	env.e.OnRequestDone(req)
	if st := env.e.ClusterStats(); st.Taxis != 0 || st.Requests != 0 {
		t.Fatalf("cluster stats after completion: %+v", st)
	}
}

func TestIndexMemoryBytes(t *testing.T) {
	env := newTestEnv(t, nil)
	if m := env.e.IndexMemoryBytes(); m <= 0 {
		t.Fatalf("IndexMemoryBytes = %d", m)
	}
}

func BenchmarkDispatchBasic(b *testing.B) {
	env := newTestEnv(b, nil)
	now := 0.0
	for i := int64(0); i < 30; i++ {
		f := 0.1 + 0.8*float64(i)/30
		taxi := fleet.NewTaxi(env.g, i, 3, env.vertexNear(b, f, 1-f))
		env.e.AddTaxi(taxi, now)
	}
	req := env.request(1, env.vertexNear(b, 0.4, 0.4), env.vertexNear(b, 0.8, 0.8), now, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = env.e.Dispatch(req, now, false)
	}
}

func BenchmarkDispatchProbabilistic(b *testing.B) {
	env := newTestEnv(b, nil)
	now := 0.0
	for i := int64(0); i < 10; i++ {
		f := 0.1 + 0.8*float64(i)/10
		taxi := fleet.NewTaxi(env.g, i, 4, env.vertexNear(b, f, f))
		env.e.AddTaxi(taxi, now)
	}
	req := env.request(1, env.vertexNear(b, 0.4, 0.4), env.vertexNear(b, 0.8, 0.8), now, 1.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = env.e.Dispatch(req, now, true)
	}
}

// BenchmarkDispatchQueueBatch measures one pending-queue retry round —
// NextBatch, DispatchBatch, MarkServed — over a saturated queue. The
// engine and fleet are rebuilt outside the timer each iteration so
// committed schedules never accumulate across rounds and every
// iteration dispatches the identical batch.
func BenchmarkDispatchQueueBatch(b *testing.B) {
	env := newTestEnv(b, nil)
	reqs := seededWorkload(env, 24, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := NewEngine(env.pt, env.spx, env.e.Config())
		if err != nil {
			b.Fatal(err)
		}
		fresh := &testEnv{g: env.g, spx: env.spx, pt: env.pt, e: e}
		placeFleet(fresh, 12, 42)
		q := NewPendingQueue(len(reqs), e.Config().SpeedMps)
		for _, r := range reqs {
			if !q.Push(r, 0).Accepted() {
				b.Fatalf("request %d rejected at push", r.ID)
			}
		}
		b.StartTimer()
		batch := q.NextBatch()
		rs := make([]*fleet.Request, len(batch))
		for j, it := range batch {
			rs[j] = it.Req
		}
		for _, o := range e.DispatchBatch(context.Background(), rs, 0, false) {
			if o.Served {
				q.MarkServed(o.Req.ID, 0)
			}
		}
	}
}

// BenchmarkCandidateSearch times one candidate search (§IV-C1) on the
// 14×14 test city. idle: 100 idle taxis, one partition each, so the taxi
// lists carry no repeats. parked: the same request re-searched over a routed
// fleet, whose en-route taxis are listed once per partition they cross — a
// parked request's retry. fresh: the same fleet searched from a new origin
// every iteration, so every search walks its disc.
func BenchmarkCandidateSearch(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		env := newTestEnv(b, nil)
		now := 0.0
		for i := int64(0); i < 100; i++ {
			f := float64(i%10)/10 + 0.05
			g := float64(i/10)/10 + 0.05
			taxi := fleet.NewTaxi(env.g, i, 3, env.vertexNear(b, f, g))
			env.e.AddTaxi(taxi, now)
		}
		req := env.request(1, env.vertexNear(b, 0.5, 0.5), env.vertexNear(b, 0.9, 0.9), now, 1.5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = env.e.CandidateTaxis(req, now)
		}
	})
	routed := func(b *testing.B) *testEnv {
		env := newTestEnv(b, nil)
		placeFleet(env, 100, 42)
		for _, r := range seededWorkload(env, 120, 7) {
			if a, ok := env.e.Dispatch(r, 0, false); ok {
				_ = env.e.Commit(a, 0)
			}
		}
		return env
	}
	b.Run("parked", func(b *testing.B) {
		env := routed(b)
		req := env.request(1000, env.vertexNear(b, 0.5, 0.5), env.vertexNear(b, 0.9, 0.9), 0, 1.5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = env.e.CandidateTaxis(req, 0)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		env := routed(b)
		n := env.g.NumVertices()
		reqs := make([]*fleet.Request, n)
		for o := range reqs {
			reqs[o] = env.request(int64(1000+o), roadnet.VertexID(o), roadnet.VertexID((o+n/2)%n), 0, 1.5)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				b.StopTimer()
				env.e.disc = newDiscMemo(env.pt) // every origin unwalked again
				b.StartTimer()
			}
			_ = env.e.CandidateTaxis(reqs[i%n], 0)
		}
	})
}

func TestEngineStatsCounters(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	taxi := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.5, 0.5))
	env.e.AddTaxi(taxi, now)
	req := env.request(1, env.vertexNear(t, 0.52, 0.52), env.vertexNear(t, 0.8, 0.8), now, 1.5)
	a, ok := env.e.Dispatch(req, now, false)
	if !ok {
		t.Fatal("dispatch failed")
	}
	if err := env.e.Commit(a, now); err != nil {
		t.Fatal(err)
	}
	st := env.e.Stats()
	if st.Dispatches != 1 || st.Assignments != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CandidatesExamined < 1 {
		t.Fatal("candidates not counted")
	}
	// Probabilistic plan counter.
	req2 := env.request(2, env.vertexNear(t, 0.3, 0.3), env.vertexNear(t, 0.7, 0.7), now, 1.8)
	_, _ = env.e.Dispatch(req2, now, true)
	if st := env.e.Stats(); st.ProbabilisticPlans == 0 {
		t.Fatal("probabilistic plans not counted")
	}
}

func TestProbMaxLegInflationBoundsDetours(t *testing.T) {
	env := newTestEnv(t, func(c *Config) { c.ProbMaxLegInflation = 1.1 })
	now := 0.0
	taxi := fleet.NewTaxi(env.g, 1, 4, env.vertexNear(t, 0.3, 0.3))
	env.e.AddTaxi(taxi, now)
	req := env.request(1, env.vertexNear(t, 0.3, 0.3), env.vertexNear(t, 0.8, 0.8), now, 2.0)
	events := []fleet.Event{{Req: req, Kind: fleet.Pickup}, {Req: req, Kind: fleet.Dropoff}}
	legs, _, ok := env.e.ProbabilisticPlan(events, taxi, now)
	if !ok {
		t.Fatal("plan failed")
	}
	// Each leg must cost at most 1.1x its shortest path.
	at := taxi.NextVertex()
	for i, leg := range legs {
		cost, err := env.g.PathCost(leg)
		if err != nil {
			t.Fatal(err)
		}
		best := env.e.Router().Cost(at, events[i].Vertex())
		if cost > best*1.1+1e-6 {
			t.Fatalf("leg %d cost %v exceeds 1.1x best %v", i, cost, best)
		}
		at = events[i].Vertex()
	}
}
