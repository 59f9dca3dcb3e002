package match

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/roadnet"
)

// runCHWorkload dispatches and commits lbWorkload on a fresh engine with
// the contraction-hierarchy backend on or off, returning the outcome
// trace plus the router's backend counters.
func runCHWorkload(t *testing.T, disable bool, parallelism int) ([]dispatchTrace, roadnet.RouterStats) {
	t.Helper()
	env := newTestEnv(t, func(c *Config) {
		c.DisableCH = disable
		c.Parallelism = parallelism
	})
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
	return out, env.e.Router().Stats()
}

// TestDispatchCHLossless is the headline guarantee of the hierarchy:
// dispatch with the CH backend is bit-identical to bidirectional-Dijkstra
// evaluation — same served set, same winning taxis, same detours — at
// every parallelism level, while actually routing through the hierarchy.
func TestDispatchCHLossless(t *testing.T) {
	base, baseStats := runCHWorkload(t, true, 1)
	if baseStats.CHQueries != 0 {
		t.Fatalf("disabled CH still answered %d queries", baseStats.CHQueries)
	}
	if baseStats.BidirQueries == 0 {
		t.Fatal("CH-off run never used the bidirectional fallback; test is vacuous")
	}
	for _, par := range []int{1, 4} {
		got, st := runCHWorkload(t, false, par)
		if st.CHQueries == 0 {
			t.Fatalf("par=%d: CH enabled but never queried; test is vacuous", par)
		}
		if st.BidirQueries != 0 {
			t.Fatalf("par=%d: CH enabled yet %d queries fell back to bidirectional Dijkstra", par, st.BidirQueries)
		}
		served := 0
		for i := range base {
			if base[i].served != got[i].served {
				t.Fatalf("par=%d req %d: served %v with CH, %v without", par, i, got[i].served, base[i].served)
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

// TestDisableCHKnob pins the config knob: disabling skips hierarchy
// construction entirely and every dispatch path still works off the
// bidirectional fallback.
func TestDisableCHKnob(t *testing.T) {
	env := newTestEnv(t, func(c *Config) { c.DisableCH = true })
	if env.e.Router().CH() != nil {
		t.Fatal("hierarchy built despite DisableCH")
	}
	taxi := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.5, 0.5))
	env.e.AddTaxi(taxi, 0)
	req := env.request(1, env.vertexNear(t, 0.52, 0.52), env.vertexNear(t, 0.8, 0.8), 0, 1.6)
	a, ok := env.e.Dispatch(req, 0, false)
	if !ok {
		t.Fatal("dispatch failed with CH disabled")
	}
	if err := env.e.Commit(a, 0); err != nil {
		t.Fatal(err)
	}
}

// TestPreBuiltCHIsUsed pins Config.CH: an engine handed a pre-built
// hierarchy must attach that instance instead of building its own.
func TestPreBuiltCHIsUsed(t *testing.T) {
	var shared *roadnet.CH
	env := newTestEnv(t, nil)
	shared = roadnet.BuildCH(env.g, 1)
	cfg := env.e.Config()
	cfg.CH = shared
	e2, err := NewEngine(env.pt, env.spx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Router().CH() != shared {
		t.Fatal("engine built a fresh hierarchy instead of attaching Config.CH")
	}
}

// benchCH is the shared contraction hierarchy over bigWorld's graph; the
// build is deterministic and immutable, so every benchmark reuses it.
var benchCH struct {
	once sync.Once
	ch   *roadnet.CH
}

func bigWorldCH(b *testing.B) *roadnet.CH {
	b.Helper()
	g, _, _ := bigWorld(b)
	benchCH.once.Do(func() { benchCH.ch = roadnet.BuildCH(g, 0) })
	return benchCH.ch
}

// BenchmarkDispatchCH measures one Dispatch call on the saturated
// 10k-vertex city with the contraction-hierarchy backend on and off. Both
// variants serve identical outcomes (the CH is exact); the ch=off rows
// are the bidirectional-Dijkstra baseline the speedup is measured
// against. The cold-path router queries dominate when the taxi fleet
// keeps moving, which is what the probe workload recreates.
func BenchmarkDispatchCH(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"ch=on", false}, {"ch=off", true}} {
		b.Run(tc.name, func(b *testing.B) {
			g, spx, pt := bigWorld(b)
			cfg := DefaultConfig()
			cfg.SearchRangeMeters = 6000
			cfg.RouterCacheTrees = 4096
			cfg.DisableCH = tc.disable
			if !tc.disable {
				cfg.CH = bigWorldCH(b)
			}
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
			b.ReportMetric((float64(s1.SchedulingNanos-s0.SchedulingNanos))/float64(b.N), "sched-ns/op")
			rs := e.Router().Stats()
			if tc.disable && rs.CHQueries != 0 {
				b.Fatalf("ch=off run answered %d CH queries", rs.CHQueries)
			}
			if !tc.disable && rs.CHQueries == 0 {
				b.Fatal("ch=on run never queried the hierarchy; benchmark is vacuous")
			}
		})
	}
}

// TestDispatchRepeatRoutesFromMemo pins the router's unit of reuse: asking
// the engine the same question twice costs no second search. The only point
// queries a repeated dispatch runs are the winner's leg paths (Path always
// searches); every cost it needs is a memo hit.
func TestDispatchRepeatRoutesFromMemo(t *testing.T) {
	env := newTestEnv(t, nil)
	placeFleet(env, 10, 42)
	served := 0
	for _, r := range lbWorkload(env, 20, 11) {
		now := r.ReleaseAt.Seconds()
		if _, ok := env.e.Dispatch(r, now, false); !ok {
			continue
		}
		served++
		s1 := env.e.Router().Stats()
		a, ok := env.e.Dispatch(r, now, false)
		if !ok {
			t.Fatalf("request %d: served once, refused when asked again", r.ID)
		}
		s2 := env.e.Router().Stats()
		paths := int64(0)
		for _, leg := range a.Legs {
			if len(leg) > 1 {
				paths++
			}
		}
		if got := s2.PointQueries() - s1.PointQueries(); got != paths {
			t.Fatalf("request %d: repeat dispatch ran %d point queries for %d leg paths — a cost was searched twice", r.ID, got, paths)
		}
		if s2.Hits == s1.Hits {
			t.Fatalf("request %d: repeat dispatch never hit the memo", r.ID)
		}
	}
	if served == 0 {
		t.Fatal("no request was served; test is vacuous")
	}
}
