package match

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// lbWorkload is seededWorkload with a flexibility mix skewed tight
// (rho 1.05–1.6): tight requests put candidate taxis past the slack
// budget, which is what the landmark screen exists to detect early.
func lbWorkload(env *testEnv, n int, seed int64) []*fleet.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]*fleet.Request, 0, n)
	nv := env.g.NumVertices()
	for len(reqs) < n {
		o := roadnet.VertexID(rng.Intn(nv))
		d := roadnet.VertexID(rng.Intn(nv))
		rho := 1.05 + rng.Float64()*0.55
		if o == d || math.IsInf(env.e.Router().Cost(o, d), 1) {
			continue
		}
		release := float64(len(reqs)) * 4
		reqs = append(reqs, env.request(int64(len(reqs)+1), o, d, release, rho))
	}
	return reqs
}

// runLBWorkload dispatches and commits lbWorkload on a fresh engine with
// the oracle on or off, returning the outcome trace plus engine stats.
func runLBWorkload(t *testing.T, disable bool, parallelism int) ([]dispatchTrace, EngineStats) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parallelism))
	env := newTestEnv(t, func(c *Config) { c.DisableLandmarkLB = disable })
	placeFleet(env, 10, 42)
	reqs := lbWorkload(env, 80, 11)
	out := make([]dispatchTrace, len(reqs))
	for i, r := range reqs {
		now := r.ReleaseAt.Seconds()
		a, ok := env.e.Dispatch(r, now, false)
		out[i] = dispatchTrace{served: ok}
		if !ok {
			continue
		}
		out[i].taxiID = a.Taxi.ID
		out[i].detour = math.Float64bits(a.DetourMeters)
		out[i].events = a.Events
		if err := env.e.Commit(a, now); err != nil {
			t.Fatalf("request %d: commit: %v", r.ID, err)
		}
	}
	return out, env.e.Stats()
}

// TestDispatchLandmarkLBLossless is the headline guarantee of the oracle:
// dispatch with the screen enabled is bit-identical to exact-only
// evaluation — same served set, same winning taxis, same detours — at
// every GOMAXPROCS, while actually pruning work.
func TestDispatchLandmarkLBLossless(t *testing.T) {
	base, baseStats := runLBWorkload(t, true, 1)
	if baseStats.LBEvaluated != 0 || baseStats.LBPruned != 0 {
		t.Fatalf("disabled oracle still screened: %+v", baseStats)
	}
	for _, par := range []int{1, 4} {
		got, st := runLBWorkload(t, false, par)
		if st.LBEvaluated == 0 {
			t.Fatalf("par=%d: oracle enabled but screened nothing", par)
		}
		if st.LBPruned == 0 {
			t.Fatalf("par=%d: screen pruned nothing on a tight workload; test is vacuous", par)
		}
		served := 0
		for i := range base {
			if base[i].served != got[i].served {
				t.Fatalf("par=%d req %d: served %v with oracle, %v without", par, i, got[i].served, base[i].served)
			}
			if !base[i].served {
				continue
			}
			served++
			if base[i].taxiID != got[i].taxiID || base[i].detour != got[i].detour {
				t.Fatalf("par=%d req %d: assignment differs (taxi %d/%d, detour bits %x/%x)",
					par, i, got[i].taxiID, base[i].taxiID, got[i].detour, base[i].detour)
			}
			if len(base[i].events) != len(got[i].events) {
				t.Fatalf("par=%d req %d: schedule shape differs", par, i)
			}
		}
		if served == 0 {
			t.Fatal("workload served nothing; test is vacuous")
		}
	}
}

// TestLBScreenNeverPrunesFeasible checks the screen's contract directly on
// random (taxi, request) pairs: whenever screenCandidateLB prunes, exact
// insertion enumeration must also find no feasible schedule. The reverse
// direction (screen passes, exact infeasible) is allowed — the screen is a
// lower bound, not an oracle of feasibility.
func TestLBScreenNeverPrunesFeasible(t *testing.T) {
	env := newTestEnv(t, nil)
	if env.e.LandmarkOracle() == nil {
		t.Fatal("oracle not built by default")
	}
	rng := rand.New(rand.NewSource(9))
	nv := env.g.NumVertices()
	speed := env.e.Config().SpeedMps
	pruned, checked := 0, 0
	for i := 0; i < 400; i++ {
		o := roadnet.VertexID(rng.Intn(nv))
		d := roadnet.VertexID(rng.Intn(nv))
		if o == d || math.IsInf(env.e.Router().Cost(o, d), 1) {
			continue
		}
		rho := 1.02 + rng.Float64()*0.4
		req := env.request(int64(i+1), o, d, 0, rho)
		tx := fleet.NewTaxi(env.g, int64(i+1), 3, roadnet.VertexID(rng.Intn(nv)))
		params := tx.EvalParamsAt(0, speed)
		checked++
		if !env.e.screenCandidateLB(req, params) {
			continue
		}
		pruned++
		if _, _, ok := fleet.BestInsertion(tx.Schedule(), req, env.e.BasicLegCost, params, false); ok {
			t.Fatalf("screen pruned a feasible pair: req %d (o=%d d=%d rho=%.3f) taxi at %d",
				req.ID, o, d, rho, tx.At())
		}
	}
	if checked == 0 || pruned == 0 {
		t.Fatalf("vacuous run: checked %d pairs, pruned %d", checked, pruned)
	}
}

// TestLBInstruments asserts the oracle's observability surface: the
// evaluated/pruned counters and the estimate latency histogram all move
// on a registry-instrumented engine.
func TestLBInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	env := newTestEnv(t, func(c *Config) { c.Metrics = reg })
	placeFleet(env, 10, 42)
	for _, r := range lbWorkload(env, 80, 11) {
		now := r.ReleaseAt.Seconds()
		if a, ok := env.e.Dispatch(r, now, false); ok {
			if err := env.e.Commit(a, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := reg.Snapshot()
	ev := snap.Counters["mtshare_match_lb_evaluated_total"]
	pr := snap.Counters["mtshare_match_lb_pruned_total"]
	if ev <= 0 {
		t.Fatalf("lb_evaluated_total = %d, want > 0", ev)
	}
	if pr <= 0 {
		t.Fatalf("lb_pruned_total = %d, want > 0", pr)
	}
	if pr > ev {
		t.Fatalf("pruned %d exceeds evaluated %d", pr, ev)
	}
	h, ok := snap.Histograms["mtshare_match_lb_estimate_seconds"]
	if !ok {
		t.Fatal("estimate histogram not registered")
	}
	if h.Count != ev {
		t.Fatalf("estimate histogram count %d != evaluated %d", h.Count, ev)
	}
	st := env.e.Stats()
	if st.LBEvaluated != ev || st.LBPruned != pr {
		t.Fatalf("EngineStats (%d, %d) disagrees with registry (%d, %d)",
			st.LBEvaluated, st.LBPruned, ev, pr)
	}
}

// TestDisableLandmarkLBKnob pins the config knob: disabling skips oracle
// construction entirely and every dispatch path still works.
func TestDisableLandmarkLBKnob(t *testing.T) {
	env := newTestEnv(t, func(c *Config) { c.DisableLandmarkLB = true })
	if env.e.LandmarkOracle() != nil {
		t.Fatal("oracle built despite DisableLandmarkLB")
	}
	taxi := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.5, 0.5))
	env.e.AddTaxi(taxi, 0)
	req := env.request(1, env.vertexNear(t, 0.52, 0.52), env.vertexNear(t, 0.8, 0.8), 0, 1.6)
	a, ok := env.e.Dispatch(req, 0, false)
	if !ok {
		t.Fatal("dispatch failed with oracle disabled")
	}
	if err := env.e.Commit(a, 0); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDispatchLandmarkLB measures one Dispatch call on the saturated
// 10k-vertex city with the landmark screen on and off. The screened
// variant evaluates the same candidate set but short-circuits hopeless
// ones before insertion enumeration; the oracle=off rows are the exact
// baseline the gain is measured against.
func BenchmarkDispatchLandmarkLB(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"oracle=on", false}, {"oracle=off", true}} {
		b.Run(tc.name, func(b *testing.B) {
			g, spx, pt := bigWorld(b)
			cfg := DefaultConfig()
			cfg.SearchRangeMeters = 6000
			cfg.RouterCacheTrees = 4096
			cfg.CH = bigWorldCH(b)
			cfg.DisableLandmarkLB = tc.disable
			e, err := NewEngine(pt, spx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			env := &testEnv{g: g, spx: spx, pt: pt, e: e}
			placeFleet(env, 400, 42)
			preload := seededWorkload(env, 400, 7)
			var now float64
			for _, r := range preload {
				now = r.ReleaseAt.Seconds()
				if a, ok := e.Dispatch(r, now, false); ok {
					if err := e.Commit(a, now); err != nil {
						b.Fatal(err)
					}
				}
			}
			// Tight probes (rho 1.15): the regime where screening pays.
			probeRNG := rand.New(rand.NewSource(99))
			nv := g.NumVertices()
			probes := make([]*fleet.Request, 0, 128)
			for len(probes) < cap(probes) {
				o := roadnet.VertexID(probeRNG.Intn(nv))
				d := roadnet.VertexID(probeRNG.Intn(nv))
				if o == d || math.IsInf(e.Router().Cost(o, d), 1) {
					continue
				}
				probes = append(probes, env.request(int64(10000+len(probes)), o, d, now, 1.15))
			}
			s0 := e.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Dispatch(probes[i%len(probes)], now, false)
			}
			b.StopTimer()
			s1 := e.Stats()
			n := float64(b.N)
			b.ReportMetric((float64(s1.SchedulingNanos-s0.SchedulingNanos))/n, "sched-ns/op")
			if ev := s1.LBEvaluated - s0.LBEvaluated; ev > 0 {
				b.ReportMetric(float64(s1.LBPruned-s0.LBPruned)/float64(ev), "prune-ratio")
			}
		})
	}
}
