package match

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/fleet"
)

func TestSolveMinCostAssignment(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		cost [][]float64
		want []int
	}{
		{
			name: "identity",
			cost: [][]float64{{1, 5}, {5, 1}},
			want: []int{0, 1},
		},
		{
			name: "crossed is cheaper",
			cost: [][]float64{{10, 1}, {1, 10}},
			want: []int{1, 0},
		},
		{
			// Greedy would give row 0 its best column 0 (cost 1) and leave
			// row 1 unmatched; max cardinality forces the swap.
			name: "cardinality beats cost",
			cost: [][]float64{{1, 3}, {2, inf}},
			want: []int{1, 0},
		},
		{
			name: "infeasible row stays unmatched",
			cost: [][]float64{{1, inf}, {inf, inf}},
			want: []int{0, -1},
		},
		{
			// Both assignments cost 4; ties resolve to the lowest column
			// for the earliest row.
			name: "tie breaks to lowest column first",
			cost: [][]float64{{2, 2}, {2, 2}},
			want: []int{0, 1},
		},
		{
			name: "more columns than rows",
			cost: [][]float64{{7, 3, 9}},
			want: []int{1},
		},
		{
			name: "more rows than columns",
			cost: [][]float64{{4}, {2}, {3}},
			want: []int{-1, 0, -1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := solveMinCostAssignment(tc.cost)
			if len(got) != len(tc.want) {
				t.Fatalf("len = %d, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("assignment = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// assignWorld builds the contention scenario the global round exists for:
// two taxis, two requests, where greedy starves one request. Request 1
// (earlier pickup deadline, so it commits first) can be served by either
// taxi but prefers the nearer taxi 1; request 2's tight geometry makes
// taxi 1 its only option, and its travel direction opposes request 1's so
// no shared schedule is feasible. Greedy hands taxi 1 to request 1 and
// strands request 2; the global solve routes request 1 to taxi 2.
func assignWorld(t *testing.T, env *testEnv, e *Engine) (reqs []*fleet.Request) {
	t.Helper()
	e.AddTaxi(fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.32, 0.32)), 0)
	e.AddTaxi(fleet.NewTaxi(env.g, 2, 3, env.vertexNear(t, 0.46, 0.46)), 0)
	r1 := env.request(1, env.vertexNear(t, 0.30, 0.30), env.vertexNear(t, 0.75, 0.75), 0, 1.5)
	r2 := env.request(2, env.vertexNear(t, 0.15, 0.15), env.vertexNear(t, 0.0, 0.0), 0, 2.8)
	return []*fleet.Request{r1, r2}
}

func TestDispatchBatchAssignBeatsGreedyUnderContention(t *testing.T) {
	env := newTestEnv(t, nil)
	greedy := env.e
	cfg := greedy.Config()
	cfg.BatchAssign = true
	global, err := NewEngine(env.pt, env.spx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	servedCount := func(out []BatchOutcome) int {
		n := 0
		for _, o := range out {
			if o.Served {
				n++
			}
		}
		return n
	}
	outG := greedy.DispatchBatch(ctx, assignWorld(t, env, greedy), 0, false)
	outA := global.DispatchBatch(ctx, assignWorld(t, env, global), 0, false)

	// The scenario must actually exercise the starvation: greedy serves
	// request 1 on taxi 1 and strands request 2.
	if servedCount(outG) != 1 || !outG[0].Served || outG[0].Req.ID != 1 || outG[0].Assignment.Taxi.ID != 1 {
		t.Fatalf("greedy round = %+v, want only request 1 served on taxi 1", outG)
	}
	if servedCount(outA) != 2 {
		t.Fatalf("global round served %d of 2: %+v", servedCount(outA), outA)
	}
	byID := map[fleet.RequestID]int64{}
	for _, o := range outA {
		byID[o.Req.ID] = o.Assignment.Taxi.ID
	}
	if byID[1] != 2 || byID[2] != 1 {
		t.Fatalf("global pairing = %v, want request 1 on taxi 2, request 2 on taxi 1", byID)
	}
	st := global.Stats()
	if st.BatchAssignRounds != 1 || st.BatchAssignFallbacks != 0 || st.BatchAssignOptions < 3 {
		t.Fatalf("assign stats = %+v", st)
	}
}

// TestDispatchBatchAssignFallbackMatchesGreedy pins the degenerate-graph
// fallback: with no contested taxi the global round must commit exactly
// what the greedy round would, and count itself as a fallback.
func TestDispatchBatchAssignFallbackMatchesGreedy(t *testing.T) {
	env := newTestEnv(t, func(c *Config) { c.SearchRangeMeters = 1200 })
	greedy := env.e
	cfg := greedy.Config()
	cfg.BatchAssign = true
	global, err := NewEngine(env.pt, env.spx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Opposite corners, search range too small for any taxi to appear in
	// both requests' candidate discs.
	world := func(e *Engine) []*fleet.Request {
		e.AddTaxi(fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.2, 0.2)), 0)
		e.AddTaxi(fleet.NewTaxi(env.g, 2, 3, env.vertexNear(t, 0.8, 0.8)), 0)
		return []*fleet.Request{
			env.request(1, env.vertexNear(t, 0.22, 0.22), env.vertexNear(t, 0.4, 0.4), 0, 1.6),
			env.request(2, env.vertexNear(t, 0.78, 0.78), env.vertexNear(t, 0.6, 0.6), 0, 1.6),
		}
	}
	ctx := context.Background()
	outG := greedy.DispatchBatch(ctx, world(greedy), 0, false)
	outA := global.DispatchBatch(ctx, world(global), 0, false)
	if len(outG) != len(outA) {
		t.Fatalf("outcome counts diverge: %d vs %d", len(outG), len(outA))
	}
	anyServed := false
	for i := range outG {
		g, a := outG[i], outA[i]
		if g.Req.ID != a.Req.ID || g.Served != a.Served || g.Conflict != a.Conflict {
			t.Fatalf("pos %d: greedy %+v vs global %+v", i, g, a)
		}
		if g.Served {
			anyServed = true
			if g.Assignment.Taxi.ID != a.Assignment.Taxi.ID ||
				math.Float64bits(g.Assignment.DetourMeters) != math.Float64bits(a.Assignment.DetourMeters) {
				t.Fatalf("pos %d winners diverge: taxi %d/%v vs %d/%v", i,
					g.Assignment.Taxi.ID, g.Assignment.DetourMeters,
					a.Assignment.Taxi.ID, a.Assignment.DetourMeters)
			}
		}
	}
	if !anyServed {
		t.Fatal("fallback differential is vacuous: nothing served")
	}
	st := global.Stats()
	if st.BatchAssignRounds != 1 || st.BatchAssignFallbacks != 1 {
		t.Fatalf("assign stats = %+v, want one round counted as fallback", st)
	}
}

// TestDispatchBatchAssignDeterministic runs the identical saturated batch
// through the global round at GOMAXPROCS 1/2/4: every level must produce
// the bit-identical outcome sequence and the same sealed batch-assign
// counters.
func TestDispatchBatchAssignDeterministic(t *testing.T) {
	env := newTestEnv(t, nil)
	type sig struct {
		id       fleet.RequestID
		served   bool
		conflict bool
		taxi     int64
		detour   uint64
	}
	run := func(par int) ([]sig, EngineStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
		cfg := DefaultConfig()
		cfg.SearchRangeMeters = 3000
		cfg.BatchAssign = true
		e, err := NewEngine(env.pt, env.spx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		placeFleetOn(e, env, 8, 21)
		reqs := seededWorkload(env, 20, 13)
		now := reqs[len(reqs)-1].ReleaseAt.Seconds()
		out := e.DispatchBatch(context.Background(), reqs, now, false)
		sigs := make([]sig, len(out))
		for i, o := range out {
			sigs[i] = sig{id: o.Req.ID, served: o.Served, conflict: o.Conflict}
			if o.Served {
				sigs[i].taxi = o.Assignment.Taxi.ID
				sigs[i].detour = math.Float64bits(o.Assignment.DetourMeters)
			}
		}
		return sigs, e.Stats()
	}
	want, wantStats := run(1)
	if wantStats.BatchAssignRounds != 1 || wantStats.BatchAssignFallbacks != 0 {
		t.Fatalf("reference round degenerate (stats %+v) — the differential would be vacuous", wantStats)
	}
	served := 0
	for _, s := range want {
		if s.served {
			served++
		}
	}
	if served == 0 {
		t.Fatal("reference round served nothing — the differential would be vacuous")
	}
	for _, par := range []int{2, 4} {
		got, gotStats := run(par)
		if len(got) != len(want) {
			t.Fatalf("par %d: %d outcomes, want %d", par, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("par %d diverged at pos %d:\n got %+v\nwant %+v", par, i, got[i], want[i])
			}
		}
		if gotStats.BatchAssignRounds != wantStats.BatchAssignRounds ||
			gotStats.BatchAssignOptions != wantStats.BatchAssignOptions ||
			gotStats.BatchAssignFallbacks != wantStats.BatchAssignFallbacks ||
			gotStats.BatchAssignRemainder != wantStats.BatchAssignRemainder {
			t.Fatalf("par %d: assign counters diverged: %+v vs %+v", par, gotStats, wantStats)
		}
	}
}

// BenchmarkDispatchBatchAssign measures one global-assignment retry round
// over the same saturated queue BenchmarkDispatchQueueBatch uses for the
// greedy protocol, so the two baselines are directly comparable.
func BenchmarkDispatchBatchAssign(b *testing.B) {
	env := newTestEnv(b, func(c *Config) { c.BatchAssign = true })
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
