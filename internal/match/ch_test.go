package match

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/roadnet"
)

// dijkstraRouter answers every dispatch-pipeline query with plain
// Dijkstra, the oracle the hierarchy is held to.
type dijkstraRouter struct{ g *roadnet.Graph }

func (d dijkstraRouter) Cost(u, v roadnet.VertexID) float64 {
	c, _, ok := d.g.ShortestPath(u, v)
	if !ok {
		return math.Inf(1)
	}
	return c
}

func (d dijkstraRouter) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	_, p, _ := d.g.ShortestPath(u, v)
	return p
}

func (d dijkstraRouter) Reachable(u, v roadnet.VertexID) bool {
	_, _, ok := d.g.ShortestPath(u, v)
	return ok
}

// runCHWorkload dispatches and commits lbWorkload on a fresh engine whose
// pipeline routes through the hierarchy, or through the Dijkstra oracle
// when oracle is set, returning the outcome trace plus the number of CH
// point queries the dispatches ran.
func runCHWorkload(t *testing.T, oracle bool, parallelism int) ([]dispatchTrace, int64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parallelism))
	env := newTestEnv(t, func(c *Config) {
		if oracle {
			c.RouterWrap = func(raw roadnet.PathRouter) roadnet.PathRouter {
				return dijkstraRouter{raw.(*roadnet.Router).Graph()}
			}
		}
	})
	placeFleet(env, 10, 42)
	reqs := lbWorkload(env, 80, 11)
	chQueries := env.e.Router().Stats().CHQueries
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
	return out, env.e.Router().Stats().CHQueries - chQueries
}

// TestDispatchCHLossless is the headline guarantee of the hierarchy:
// dispatch through the CH is bit-identical to dispatch routed by plain
// Dijkstra — same served set, same winning taxis, same detours — at every
// GOMAXPROCS, while actually routing through the hierarchy.
func TestDispatchCHLossless(t *testing.T) {
	base, baseCH := runCHWorkload(t, true, 1)
	if baseCH != 0 {
		t.Fatalf("the oracle run answered %d dispatch queries from the hierarchy", baseCH)
	}
	for _, par := range []int{1, 4} {
		got, chQueries := runCHWorkload(t, false, par)
		if chQueries == 0 {
			t.Fatalf("par=%d: CH never queried; test is vacuous", par)
		}
		served := 0
		for i := range base {
			if base[i].served != got[i].served {
				t.Fatalf("par=%d req %d: served %v with CH, %v with Dijkstra", par, i, got[i].served, base[i].served)
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

// TestPreBuiltCHIsUsed pins Config.CH: an engine handed a pre-built
// hierarchy must attach that instance instead of building its own.
func TestPreBuiltCHIsUsed(t *testing.T) {
	var shared *roadnet.CH
	env := newTestEnv(t, nil)
	shared = roadnet.BuildCH(env.g)
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
	benchCH.once.Do(func() { benchCH.ch = roadnet.BuildCH(g) })
	return benchCH.ch
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
		if got := s2.CHQueries - s1.CHQueries; got != paths {
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
