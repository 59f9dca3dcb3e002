package fleet

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// testGraph builds a 1-D corridor 0-1-2-3-4-5 with bidirectional edges of
// 1000 m each.
func testGraph() *roadnet.Graph {
	g := roadnet.NewGraph(6)
	for i := 0; i < 6; i++ {
		g.AddVertex(geo.Point{Lat: 30, Lng: 104 + float64(i)*0.01})
	}
	for i := 0; i+1 < 6; i++ {
		g.AddEdge(roadnet.VertexID(i), roadnet.VertexID(i+1), 1000)
		g.AddEdge(roadnet.VertexID(i+1), roadnet.VertexID(i), 1000)
	}
	return g
}

func testRequest(g *roadnet.Graph, id int64, o, d roadnet.VertexID, release, deadline time.Duration) *Request {
	cost, _, _ := g.ShortestPath(o, d)
	return &Request{
		ID:           RequestID(id),
		ReleaseAt:    release,
		Origin:       o,
		Dest:         d,
		Deadline:     deadline,
		DirectMeters: cost,
		Passengers:   1,
		OriginPt:     g.Point(o),
		DestPt:       g.Point(d),
	}
}

func pathBetween(t *testing.T, g *roadnet.Graph, u, v roadnet.VertexID) []roadnet.VertexID {
	t.Helper()
	_, p, ok := g.ShortestPath(u, v)
	if !ok {
		t.Fatalf("no path %d->%d", u, v)
	}
	return p
}

func TestRequestValidate(t *testing.T) {
	g := testGraph()
	good := testRequest(g, 1, 0, 3, 0, time.Hour)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Request{
		{ID: 1, Origin: 0, Dest: 1, Deadline: time.Hour, Passengers: 0},
		{ID: 2, Origin: 0, Dest: 1, ReleaseAt: time.Hour, Deadline: time.Minute, Passengers: 1},
		{ID: 3, Origin: 0, Dest: 1, Deadline: time.Hour, Passengers: 1, DirectMeters: -1},
		{ID: 4, Origin: 2, Dest: 2, Deadline: time.Hour, Passengers: 1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRequestDeadlines(t *testing.T) {
	g := testGraph()
	// 0 -> 3 is 3000 m; at 10 m/s direct time is 300 s.
	r := testRequest(g, 1, 0, 3, 100*time.Second, 1000*time.Second)
	if got := r.DirectSeconds(10); got != 300 {
		t.Fatalf("DirectSeconds = %v", got)
	}
	if got := r.PickupDeadline(10); got != 700*time.Second {
		t.Fatalf("PickupDeadline = %v", got)
	}
	if got := r.Slack(10); got != 600*time.Second {
		t.Fatalf("Slack = %v", got)
	}
}

func TestEventVertexAndString(t *testing.T) {
	g := testGraph()
	r := testRequest(g, 1, 0, 3, 0, time.Hour)
	pk := Event{Req: r, Kind: Pickup}
	dp := Event{Req: r, Kind: Dropoff}
	if pk.Vertex() != 0 || dp.Vertex() != 3 {
		t.Fatal("event vertices wrong")
	}
	if pk.String() == "" || Pickup.String() != "pickup" || Dropoff.String() != "dropoff" {
		t.Fatal("strings wrong")
	}
}

func TestValidSequence(t *testing.T) {
	g := testGraph()
	r1 := testRequest(g, 1, 0, 3, 0, time.Hour)
	r2 := testRequest(g, 2, 1, 4, 0, time.Hour)
	ok := []Event{{r1, Pickup}, {r2, Pickup}, {r1, Dropoff}, {r2, Dropoff}}
	if !ValidSequence(ok) {
		t.Fatal("valid sequence rejected")
	}
	dupPickup := []Event{{r1, Pickup}, {r1, Pickup}}
	if ValidSequence(dupPickup) {
		t.Fatal("duplicate pickup accepted")
	}
	pickupAfterDrop := []Event{{r1, Pickup}, {r1, Dropoff}, {r1, Pickup}}
	if ValidSequence(pickupAfterDrop) {
		t.Fatal("pickup after dropoff accepted")
	}
	dupDrop := []Event{{r1, Pickup}, {r1, Dropoff}, {r1, Dropoff}}
	if ValidSequence(dupDrop) {
		t.Fatal("duplicate dropoff accepted")
	}
}

func TestInsertionCandidatesCountAndValidity(t *testing.T) {
	g := testGraph()
	r1 := testRequest(g, 1, 0, 3, 0, time.Hour)
	r2 := testRequest(g, 2, 1, 4, 0, time.Hour)
	r3 := testRequest(g, 3, 2, 5, 0, time.Hour)
	sched := []Event{{r1, Pickup}, {r1, Dropoff}, {r2, Pickup}, {r2, Dropoff}}
	cands := InsertionCandidates(sched, r3)
	m := len(sched)
	want := (m + 1) * (m + 2) / 2
	if len(cands) != want {
		t.Fatalf("candidates = %d, want %d", len(cands), want)
	}
	for _, c := range cands {
		if len(c) != m+2 {
			t.Fatalf("candidate length %d", len(c))
		}
		if !ValidSequence(c) {
			t.Fatalf("invalid candidate %v", c)
		}
		// Existing order preserved.
		var kept []Event
		for _, e := range c {
			if e.Req.ID != r3.ID {
				kept = append(kept, e)
			}
		}
		for i := range kept {
			if kept[i] != sched[i] {
				t.Fatal("existing schedule order changed")
			}
		}
	}
}

func TestInsertionCandidatesEmptySchedule(t *testing.T) {
	g := testGraph()
	r := testRequest(g, 1, 0, 3, 0, time.Hour)
	cands := InsertionCandidates(nil, r)
	if len(cands) != 1 {
		t.Fatalf("candidates = %d, want 1", len(cands))
	}
	if cands[0][0].Kind != Pickup || cands[0][1].Kind != Dropoff {
		t.Fatal("pair order wrong")
	}
}

func legCoster(g *roadnet.Graph) LegCoster {
	return func(u, v roadnet.VertexID) (float64, bool) {
		c, _, ok := g.ShortestPath(u, v)
		return c, ok
	}
}

func TestEvaluateScheduleHappyPath(t *testing.T) {
	g := testGraph()
	r := testRequest(g, 1, 1, 4, 0, 1000*time.Second)
	events := []Event{{r, Pickup}, {r, Dropoff}}
	res := EvaluateSchedule(events, legCoster(g), EvalParams{
		SpeedMps: 10, Start: 0, Capacity: 3,
	})
	if !res.Feasible {
		t.Fatal("feasible schedule rejected")
	}
	if res.TotalMeters != 4000 { // 0->1 (1000) + 1->4 (3000)
		t.Fatalf("TotalMeters = %v", res.TotalMeters)
	}
	if res.ArrivalSeconds[0] != 100 || res.ArrivalSeconds[1] != 400 {
		t.Fatalf("arrivals = %v", res.ArrivalSeconds)
	}
}

func TestEvaluateScheduleDeadlineViolations(t *testing.T) {
	g := testGraph()
	// Direct time 1->4 at 10 m/s = 300 s; deadline 350 s means pickup
	// deadline is 50 s. Starting from vertex 0 takes 100 s to pick up.
	r := testRequest(g, 1, 1, 4, 0, 350*time.Second)
	events := []Event{{r, Pickup}, {r, Dropoff}}
	res := EvaluateSchedule(events, legCoster(g), EvalParams{SpeedMps: 10, Start: 0, Capacity: 3})
	if res.Feasible {
		t.Fatal("pickup past deadline accepted")
	}
	// Same start, roomy pickup deadline but impossible delivery deadline.
	r2 := testRequest(g, 2, 0, 5, 0, 400*time.Second) // direct 500 s > 400 s
	res2 := EvaluateSchedule([]Event{{r2, Pickup}, {r2, Dropoff}}, legCoster(g),
		EvalParams{SpeedMps: 10, Start: 0, Capacity: 3})
	if res2.Feasible {
		t.Fatal("impossible delivery accepted")
	}
}

func TestEvaluateScheduleExactlyAtDeadline(t *testing.T) {
	g := testGraph()
	// Direct time 1->4 at 10 m/s = 300 s; deadline 400 s puts the pickup
	// deadline at exactly 100 s — precisely the arrival time from vertex 0.
	// The dropoff then lands at exactly 400 s. Deadlines are inclusive:
	// arrival exactly at either boundary is feasible.
	r := testRequest(g, 1, 1, 4, 0, 400*time.Second)
	events := []Event{{r, Pickup}, {r, Dropoff}}
	res := EvaluateSchedule(events, legCoster(g), EvalParams{SpeedMps: 10, Start: 0, Capacity: 3})
	if !res.Feasible {
		t.Fatal("arrival exactly at the deadline rejected")
	}
	if res.ArrivalSeconds[0] != 100 || res.ArrivalSeconds[1] != 400 {
		t.Fatalf("arrivals = %v", res.ArrivalSeconds)
	}
	// One second less slack pushes the pickup strictly past its deadline.
	late := testRequest(g, 2, 1, 4, 0, 399*time.Second)
	res2 := EvaluateSchedule([]Event{{late, Pickup}, {late, Dropoff}}, legCoster(g),
		EvalParams{SpeedMps: 10, Start: 0, Capacity: 3})
	if res2.Feasible {
		t.Fatal("arrival strictly past the deadline accepted")
	}
}

func TestEvaluateScheduleWithCostsMismatch(t *testing.T) {
	g := testGraph()
	r := testRequest(g, 1, 1, 4, 0, time.Hour)
	events := []Event{{r, Pickup}, {r, Dropoff}}
	p := EvalParams{SpeedMps: 10, Start: 0, Capacity: 3}
	for _, legs := range [][]float64{nil, {1000}, {1000, 3000, 500}} {
		res := EvaluateScheduleWithCosts(events, legs, p)
		if res.Feasible {
			t.Fatalf("legs %v: mismatched legMeters accepted", legs)
		}
		if len(res.ArrivalSeconds) != len(events) {
			t.Fatalf("legs %v: ArrivalSeconds len = %d, want %d", legs, len(res.ArrivalSeconds), len(events))
		}
		for i, a := range res.ArrivalSeconds {
			if a != 0 {
				t.Fatalf("legs %v: ArrivalSeconds[%d] = %v, want zero-filled", legs, i, a)
			}
		}
		if res.TotalMeters != 0 {
			t.Fatalf("legs %v: TotalMeters = %v, want 0", legs, res.TotalMeters)
		}
	}
	// Matched lengths still evaluate normally.
	res := EvaluateScheduleWithCosts(events, []float64{1000, 3000}, p)
	if !res.Feasible || res.TotalMeters != 4000 {
		t.Fatalf("matched legs: Feasible=%v TotalMeters=%v", res.Feasible, res.TotalMeters)
	}
}

func TestEvaluateScheduleCapacity(t *testing.T) {
	g := testGraph()
	r1 := testRequest(g, 1, 0, 5, 0, time.Hour)
	r2 := testRequest(g, 2, 1, 4, 0, time.Hour)
	events := []Event{{r1, Pickup}, {r2, Pickup}, {r2, Dropoff}, {r1, Dropoff}}
	ok := EvaluateSchedule(events, legCoster(g), EvalParams{SpeedMps: 10, Start: 0, Capacity: 2})
	if !ok.Feasible {
		t.Fatal("capacity-2 schedule rejected")
	}
	tight := EvaluateSchedule(events, legCoster(g), EvalParams{SpeedMps: 10, Start: 0, Capacity: 1})
	if tight.Feasible {
		t.Fatal("over-capacity schedule accepted")
	}
	preload := EvaluateSchedule(events, legCoster(g), EvalParams{SpeedMps: 10, Start: 0, Capacity: 2, OnboardSeats: 1})
	if preload.Feasible {
		t.Fatal("onboard seats ignored")
	}
}

func TestEvaluateScheduleLeadMetersAndNow(t *testing.T) {
	g := testGraph()
	r := testRequest(g, 1, 1, 4, 0, 1000*time.Second)
	events := []Event{{r, Pickup}, {r, Dropoff}}
	res := EvaluateSchedule(events, legCoster(g), EvalParams{
		NowSeconds: 50, SpeedMps: 10, Start: 0, LeadMeters: 500, Capacity: 3,
	})
	if !res.Feasible {
		t.Fatal("rejected")
	}
	// Arrival at pickup: 50 + (500+1000)/10 = 200.
	if res.ArrivalSeconds[0] != 200 {
		t.Fatalf("pickup arrival = %v", res.ArrivalSeconds[0])
	}
	if res.TotalMeters != 4500 {
		t.Fatalf("TotalMeters = %v", res.TotalMeters)
	}
}

func TestEvaluateScheduleUnroutableLeg(t *testing.T) {
	g := roadnet.NewGraph(2)
	g.AddVertex(geo.Point{Lat: 30, Lng: 104})
	g.AddVertex(geo.Point{Lat: 30, Lng: 104.01})
	g.AddEdge(0, 1, 1000) // one way only
	r := &Request{ID: 1, Origin: 1, Dest: 0, Deadline: time.Hour, Passengers: 1, DirectMeters: 1000}
	res := EvaluateSchedule([]Event{{r, Pickup}, {r, Dropoff}}, legCoster(g),
		EvalParams{SpeedMps: 10, Start: 0, Capacity: 2})
	if res.Feasible {
		t.Fatal("unroutable leg accepted")
	}
}

func TestEvaluateScheduleZeroSpeed(t *testing.T) {
	g := testGraph()
	r := testRequest(g, 1, 1, 4, 0, time.Hour)
	res := EvaluateSchedule([]Event{{r, Pickup}, {r, Dropoff}}, legCoster(g),
		EvalParams{SpeedMps: 0, Start: 0, Capacity: 2})
	if res.Feasible {
		t.Fatal("zero speed accepted")
	}
}

func TestBestInsertionPicksMinimumCost(t *testing.T) {
	g := testGraph()
	// Taxi at 0 already serving r1: 0 -> 5. Insert r2 (1 -> 2): the best
	// insertion is pickup and dropoff en route (no detour).
	r1 := testRequest(g, 1, 0, 5, 0, time.Hour)
	r2 := testRequest(g, 2, 1, 2, 0, time.Hour)
	sched := []Event{{r1, Pickup}, {r1, Dropoff}}
	params := EvalParams{SpeedMps: 10, Start: 0, Capacity: 3}
	best, ev, ok := BestInsertion(sched, r2, legCoster(g), params, false)
	if !ok {
		t.Fatal("no feasible insertion")
	}
	if ev.TotalMeters != 5000 {
		t.Fatalf("best insertion cost %v, want 5000 (zero detour)", ev.TotalMeters)
	}
	if !ValidSequence(best) {
		t.Fatal("invalid best sequence")
	}
}

func TestBestInsertionStopAtFirst(t *testing.T) {
	g := testGraph()
	r1 := testRequest(g, 1, 0, 5, 0, time.Hour)
	r2 := testRequest(g, 2, 1, 2, 0, time.Hour)
	sched := []Event{{r1, Pickup}, {r1, Dropoff}}
	params := EvalParams{SpeedMps: 10, Start: 0, Capacity: 3}
	_, first, ok := BestInsertion(sched, r2, legCoster(g), params, true)
	if !ok {
		t.Fatal("no feasible insertion")
	}
	_, best, _ := BestInsertion(sched, r2, legCoster(g), params, false)
	if first.TotalMeters < best.TotalMeters {
		t.Fatal("first-valid beat exhaustive best")
	}
}

func TestBestInsertionInfeasible(t *testing.T) {
	g := testGraph()
	r1 := testRequest(g, 1, 0, 5, 0, 510*time.Second) // direct 500 s, no slack
	r2 := testRequest(g, 2, 5, 0, 0, 510*time.Second) // opposite, equally tight
	sched := []Event{{r1, Pickup}, {r1, Dropoff}}
	if _, _, ok := BestInsertion(sched, r2, legCoster(g), EvalParams{SpeedMps: 10, Start: 0, Capacity: 3}, false); ok {
		t.Fatal("infeasible insertion accepted")
	}
}

func TestTaxiLifecycle(t *testing.T) {
	g := testGraph()
	taxi := NewTaxi(g, 1, 3, 0)
	if !taxi.Empty() || taxi.At() != 0 || taxi.OccupiedSeats() != 0 || taxi.IdleSeats() != 3 {
		t.Fatal("fresh taxi state wrong")
	}
	if _, ok := taxi.MobilityVector(); ok {
		t.Fatal("empty taxi has a mobility vector")
	}

	r := testRequest(g, 1, 1, 4, 0, time.Hour)
	events := []Event{{r, Pickup}, {r, Dropoff}}
	legs := [][]roadnet.VertexID{pathBetween(t, g, 0, 1), pathBetween(t, g, 1, 4)}
	if err := taxi.SetPlan(events, legs); err != nil {
		t.Fatal(err)
	}
	if taxi.Empty() {
		t.Fatal("taxi with waiting request reports empty")
	}
	if got := taxi.RemainingMeters(); got != 4000 {
		t.Fatalf("RemainingMeters = %v", got)
	}
	if _, ok := taxi.MobilityVector(); !ok {
		t.Fatal("assigned taxi has no mobility vector")
	}

	// Advance 1000 m: reach vertex 1, pickup fires.
	visits := taxi.Advance(1000)
	if len(visits) != 1 || visits[0].Event.Kind != Pickup {
		t.Fatalf("visits = %v", visits)
	}
	if visits[0].MetersIntoTick != 1000 {
		t.Fatalf("MetersIntoTick = %v", visits[0].MetersIntoTick)
	}
	if taxi.OccupiedSeats() != 1 || len(taxi.Onboard()) != 1 || len(taxi.Waiting()) != 0 {
		t.Fatal("pickup bookkeeping wrong")
	}

	// Advance the remaining 3000 m: dropoff fires and taxi parks at 4.
	visits = taxi.Advance(3000)
	if len(visits) != 1 || visits[0].Event.Kind != Dropoff {
		t.Fatalf("visits = %v", visits)
	}
	if !taxi.Empty() || taxi.At() != 4 || taxi.OccupiedSeats() != 0 {
		t.Fatalf("post-delivery state: empty=%v at=%d", taxi.Empty(), taxi.At())
	}
	if taxi.RemainingMeters() != 0 || taxi.Route() != nil {
		t.Fatal("parked taxi still has a route")
	}
}

func TestTaxiAdvancePartialEdge(t *testing.T) {
	g := testGraph()
	taxi := NewTaxi(g, 1, 3, 0)
	r := testRequest(g, 1, 2, 4, 0, time.Hour)
	events := []Event{{r, Pickup}, {r, Dropoff}}
	legs := [][]roadnet.VertexID{pathBetween(t, g, 0, 2), pathBetween(t, g, 2, 4)}
	if err := taxi.SetPlan(events, legs); err != nil {
		t.Fatal(err)
	}
	taxi.Advance(500) // mid first edge
	if taxi.At() != 0 {
		t.Fatalf("At = %d mid-edge", taxi.At())
	}
	if taxi.NextVertex() != 1 {
		t.Fatalf("NextVertex = %d", taxi.NextVertex())
	}
	if lm := taxi.LeadMeters(); lm != 500 {
		t.Fatalf("LeadMeters = %v", lm)
	}
	// Interpolated point lies between vertices 0 and 1.
	p := taxi.Point()
	if p.Lng <= g.Point(0).Lng || p.Lng >= g.Point(1).Lng {
		t.Fatalf("interpolated point %v outside edge", p)
	}
	if got := taxi.RemainingMeters(); got != 3500 {
		t.Fatalf("RemainingMeters = %v", got)
	}
}

func TestTaxiReplanMidEdgePreservesCommittedEdge(t *testing.T) {
	g := testGraph()
	taxi := NewTaxi(g, 1, 3, 0)
	r1 := testRequest(g, 1, 2, 4, 0, time.Hour)
	legs := [][]roadnet.VertexID{pathBetween(t, g, 0, 2), pathBetween(t, g, 2, 4)}
	if err := taxi.SetPlan([]Event{{r1, Pickup}, {r1, Dropoff}}, legs); err != nil {
		t.Fatal(err)
	}
	taxi.Advance(500) // committed to edge 0->1
	// Replan from NextVertex (=1).
	r2 := testRequest(g, 2, 1, 3, 0, time.Hour)
	events := []Event{{r2, Pickup}, {r1, Pickup}, {r1, Dropoff}, {r2, Dropoff}}
	newLegs := [][]roadnet.VertexID{
		pathBetween(t, g, 1, 1),
		pathBetween(t, g, 1, 2),
		pathBetween(t, g, 2, 4),
		pathBetween(t, g, 4, 3),
	}
	if err := taxi.SetPlan(events, newLegs); err != nil {
		t.Fatal(err)
	}
	// Remaining: 500 (rest of committed edge) + 1000 + 2000 + 1000.
	if got := taxi.RemainingMeters(); got != 4500 {
		t.Fatalf("RemainingMeters = %v", got)
	}
	visits := taxi.Advance(500)
	if len(visits) != 1 || visits[0].Event.Req.ID != 2 || visits[0].Event.Kind != Pickup {
		t.Fatalf("pickup at committed-edge end missing: %v", visits)
	}
	// Drive to completion.
	visits = taxi.Advance(4000)
	if len(visits) != 3 {
		t.Fatalf("remaining visits = %d, want 3", len(visits))
	}
	if !taxi.Empty() || taxi.At() != 3 {
		t.Fatalf("final state: at %d", taxi.At())
	}
}

func TestTaxiSetPlanErrors(t *testing.T) {
	g := testGraph()
	taxi := NewTaxi(g, 1, 3, 0)
	r := testRequest(g, 1, 1, 4, 0, time.Hour)
	events := []Event{{r, Pickup}, {r, Dropoff}}
	cases := map[string][][]roadnet.VertexID{
		"wrong leg count": {pathBetween(t, g, 0, 1)},
		"empty leg":       {pathBetween(t, g, 0, 1), nil},
		"leg discontinuity": {
			pathBetween(t, g, 0, 1),
			pathBetween(t, g, 2, 4),
		},
		"leg wrong endpoint": {
			pathBetween(t, g, 0, 1),
			pathBetween(t, g, 1, 3),
		},
		"missing edge": {
			{0, 2}, // no direct edge 0->2
			pathBetween(t, g, 2, 4),
		},
	}
	for name, legs := range cases {
		if err := taxi.SetPlan(events, legs); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Bad request wiring: dropoff for unknown request.
	r2 := testRequest(g, 2, 2, 5, 0, time.Hour)
	if err := taxi.SetPlan([]Event{{r2, Dropoff}}, [][]roadnet.VertexID{pathBetween(t, g, 0, 5)}); err == nil {
		t.Error("dropoff-only for unknown request accepted")
	}
	// Plan dropping a known request.
	if err := taxi.SetPlan(events, [][]roadnet.VertexID{pathBetween(t, g, 0, 1), pathBetween(t, g, 1, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := taxi.SetPlan(nil, nil); err == nil {
		t.Error("plan dropping waiting request accepted")
	}
}

func TestTaxiCruisePlan(t *testing.T) {
	g := testGraph()
	taxi := NewTaxi(g, 1, 3, 0)
	// Cruise 0 -> 3 with no events (probabilistic seeking).
	if err := taxi.SetPlan(nil, [][]roadnet.VertexID{pathBetween(t, g, 0, 3)}); err != nil {
		t.Fatal(err)
	}
	if !taxi.Empty() {
		t.Fatal("cruising taxi not empty")
	}
	if v := taxi.Advance(3000); len(v) != 0 {
		t.Fatalf("cruise produced events: %v", v)
	}
	if taxi.At() != 3 {
		t.Fatalf("cruise ended at %d", taxi.At())
	}
}

func TestTaxiParkPlan(t *testing.T) {
	g := testGraph()
	taxi := NewTaxi(g, 1, 3, 2)
	if err := taxi.SetPlan(nil, nil); err != nil {
		t.Fatal(err)
	}
	if taxi.At() != 2 || taxi.Advance(100) != nil {
		t.Fatal("parked taxi misbehaved")
	}
}

func TestTaxiEventAtStartVertex(t *testing.T) {
	g := testGraph()
	taxi := NewTaxi(g, 1, 3, 1)
	r := testRequest(g, 1, 1, 4, 0, time.Hour)
	events := []Event{{r, Pickup}, {r, Dropoff}}
	legs := [][]roadnet.VertexID{{1}, pathBetween(t, g, 1, 4)}
	if err := taxi.SetPlan(events, legs); err != nil {
		t.Fatal(err)
	}
	visits := taxi.Advance(0)
	if len(visits) != 1 || visits[0].Event.Kind != Pickup {
		t.Fatalf("start-vertex pickup did not fire: %v", visits)
	}
	if taxi.OccupiedSeats() != 1 {
		t.Fatal("seat accounting after start pickup")
	}
}

func TestTaxiMultipleEventsSameVertex(t *testing.T) {
	g := testGraph()
	taxi := NewTaxi(g, 1, 4, 0)
	// Two passengers picked up at the same vertex 2.
	r1 := testRequest(g, 1, 2, 4, 0, time.Hour)
	r2 := testRequest(g, 2, 2, 5, 0, time.Hour)
	events := []Event{{r1, Pickup}, {r2, Pickup}, {r1, Dropoff}, {r2, Dropoff}}
	legs := [][]roadnet.VertexID{
		pathBetween(t, g, 0, 2), {2}, pathBetween(t, g, 2, 4), pathBetween(t, g, 4, 5),
	}
	if err := taxi.SetPlan(events, legs); err != nil {
		t.Fatal(err)
	}
	visits := taxi.Advance(2000)
	if len(visits) != 2 {
		t.Fatalf("visits at shared vertex = %d, want 2", len(visits))
	}
	if taxi.OccupiedSeats() != 2 {
		t.Fatalf("seats = %d", taxi.OccupiedSeats())
	}
	visits = taxi.Advance(3000)
	if len(visits) != 2 || !taxi.Empty() {
		t.Fatalf("deliveries = %d, empty = %v", len(visits), taxi.Empty())
	}
}

func TestTaxiAdvanceManySmallTicks(t *testing.T) {
	// Motion must be exact regardless of tick granularity.
	g := testGraph()
	taxi := NewTaxi(g, 1, 3, 0)
	r := testRequest(g, 1, 1, 4, 0, time.Hour)
	legs := [][]roadnet.VertexID{pathBetween(t, g, 0, 1), pathBetween(t, g, 1, 4)}
	if err := taxi.SetPlan([]Event{{r, Pickup}, {r, Dropoff}}, legs); err != nil {
		t.Fatal(err)
	}
	var all []EventVisit
	total := 0.0
	for i := 0; i < 1000 && !taxi.Empty(); i++ {
		all = append(all, taxi.Advance(7.3)...)
		total += 7.3
	}
	if len(all) != 2 {
		t.Fatalf("events fired = %d", len(all))
	}
	if math.Abs(total-4000) > 10 {
		t.Fatalf("travelled %v m for a 4000 m plan", total)
	}
}

func TestEvalParamsAt(t *testing.T) {
	g := testGraph()
	taxi := NewTaxi(g, 1, 3, 0)
	r := testRequest(g, 1, 2, 4, 0, time.Hour)
	legs := [][]roadnet.VertexID{pathBetween(t, g, 0, 2), pathBetween(t, g, 2, 4)}
	if err := taxi.SetPlan([]Event{{r, Pickup}, {r, Dropoff}}, legs); err != nil {
		t.Fatal(err)
	}
	taxi.Advance(300)
	p := taxi.EvalParamsAt(42, 10)
	if p.NowSeconds != 42 || p.SpeedMps != 10 {
		t.Fatal("params passthrough wrong")
	}
	if p.Start != 1 || p.LeadMeters != 700 {
		t.Fatalf("Start=%d Lead=%v", p.Start, p.LeadMeters)
	}
	if p.Capacity != 3 || p.OnboardSeats != 0 {
		t.Fatal("capacity params wrong")
	}
}

func TestNewTaxiPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTaxi(testGraph(), 1, 0, 0)
}

func BenchmarkInsertionEnumeration(b *testing.B) {
	g := testGraph()
	var sched []Event
	for i := 0; i < 3; i++ {
		r := testRequest(g, int64(i), roadnet.VertexID(i), roadnet.VertexID(i+2), 0, time.Hour)
		sched = append(sched, Event{r, Pickup}, Event{r, Dropoff})
	}
	req := testRequest(g, 99, 1, 5, 0, time.Hour)
	lc := legCoster(g)
	params := EvalParams{SpeedMps: 10, Start: 0, Capacity: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = BestInsertion(sched, req, lc, params, false)
	}
}

func BenchmarkTaxiAdvance(b *testing.B) {
	g := testGraph()
	r := testRequest(g, 1, 1, 4, 0, time.Hour)
	legs := [][]roadnet.VertexID{
		{0, 1}, {1, 2, 3, 4},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		taxi2 := NewTaxi(g, 1, 3, 0)
		if err := taxi2.SetPlan([]Event{{r, Pickup}, {r, Dropoff}}, legs); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for !taxi2.Empty() {
			taxi2.Advance(50)
		}
	}
}

// TestMobilityVectorIndependentOfInsertionOrder pins the centroid's float
// sum to ascending request-ID order: the same five riders, split between
// waiting and onboard and inserted in shuffled orders into fresh maps, must
// give bit-identical vectors. Summed in map order they do not — the last
// bit moves — which is the one-ulp recovery mismatch this guards against.
func TestMobilityVectorIndependentOfInsertionOrder(t *testing.T) {
	g := testGraph()
	dests := []geo.Point{{Lat: 30.1, Lng: 104.7}, {Lat: 30.7, Lng: 104.1}, {Lat: 30.3, Lng: 104.9123456789}, {Lat: 30.9123456789, Lng: 104.3}, {Lat: 30.55, Lng: 104.05}}
	// The points must be order-sensitive for the test to mean anything.
	sums := map[uint64]bool{}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		s := 0.0
		for _, i := range rng.Perm(len(dests)) {
			s += dests[i].Lat
		}
		sums[math.Float64bits(s)] = true
	}
	if len(sums) < 2 {
		t.Fatal("the destinations sum to the same bits in every order; pick others")
	}

	var want geo.MobilityVector
	for trial := 0; trial < 200; trial++ {
		taxi := NewTaxi(g, 1, 6, 0)
		for _, i := range rng.Perm(len(dests)) {
			r := &Request{ID: RequestID(10 + i), DestPt: dests[i]}
			if (i+trial)%2 == 0 {
				taxi.waiting[r.ID] = r
			} else {
				taxi.onboard[r.ID] = r
			}
		}
		got, ok := taxi.MobilityVector()
		if !ok {
			t.Fatal("occupied taxi has no mobility vector")
		}
		if trial == 0 {
			want = got
		}
		if math.Float64bits(got.DestLat) != math.Float64bits(want.DestLat) || math.Float64bits(got.DestLng) != math.Float64bits(want.DestLng) {
			t.Fatalf("trial %d: destination centroid %x/%x, first trial %x/%x", trial,
				math.Float64bits(got.DestLat), math.Float64bits(got.DestLng), math.Float64bits(want.DestLat), math.Float64bits(want.DestLng))
		}
	}
}
