package roadnet

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestRouterCostMatchesDijkstra(t *testing.T) {
	g, err := GenerateCity(DefaultCityParams(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, 64).AttachCH(BuildCH(g))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		u := VertexID(rng.Intn(g.NumVertices()))
		v := VertexID(rng.Intn(g.NumVertices()))
		want, _, ok := g.ShortestPath(u, v)
		got := r.Cost(u, v)
		if !ok {
			if !math.IsInf(got, 1) {
				t.Fatalf("Cost(%d,%d) = %v for unreachable pair", u, v, got)
			}
			continue
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Cost(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

func TestRouterPathValid(t *testing.T) {
	g, err := GenerateCity(DefaultCityParams(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, 16).AttachCH(BuildCH(g))
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		u := VertexID(rng.Intn(g.NumVertices()))
		v := VertexID(rng.Intn(g.NumVertices()))
		p := r.Path(u, v)
		if p == nil {
			t.Fatalf("nil path %d->%d in connected city", u, v)
		}
		if p[0] != u || p[len(p)-1] != v {
			t.Fatalf("path endpoints %v for %d->%d", p, u, v)
		}
		c, err := g.PathCost(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(c-r.Cost(u, v)) > 1e-9 {
			t.Fatalf("path cost %v != Cost %v", c, r.Cost(u, v))
		}
	}
}

func TestRouterSelfQueries(t *testing.T) {
	g := gridGraph(3)
	r := NewRouter(g, 4).AttachCH(BuildCH(g))
	if c := r.Cost(5, 5); c != 0 {
		t.Fatalf("self cost = %v", c)
	}
	if p := r.Path(5, 5); len(p) != 1 || p[0] != 5 {
		t.Fatalf("self path = %v", p)
	}
	if st := r.Stats(); st.CHQueries != 0 || st.MemoEntries != 0 {
		t.Fatalf("self queries should neither search nor memoise: %+v", st)
	}
}

// TestRouterMemoBound drives far more distinct pairs through a capacity-1
// router than its budget holds: the memo must stay inside capacity*12*|V|
// bytes at every step, keep answering exactly, and keep a pair that is
// re-asked between rotations.
func TestRouterMemoBound(t *testing.T) {
	g, err := GenerateCity(DefaultCityParams(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	r := NewRouter(g, 1).AttachCH(BuildCH(g))
	budget := int64(12 * n)
	hot := r.Cost(0, VertexID(n-1))
	pairs := 0
	for u := 0; u < n && pairs < 4*int(budget)/memoEntryBytes; u++ {
		tree := g.SSSP(VertexID(u))
		for v := 0; v < n; v += 13 { // fewer pairs per source than one generation holds
			if u == v {
				continue
			}
			pairs++
			if got := r.Cost(VertexID(u), VertexID(v)); got != tree.Dist[v] {
				t.Fatalf("Cost(%d,%d) = %v after %d pairs, SSSP says %v", u, v, got, pairs, tree.Dist[v])
			}
			if st := r.Stats(); st.MemoBytes > budget || st.MemoBytes != int64(st.MemoEntries)*memoEntryBytes {
				t.Fatalf("after %d pairs the memo holds %d entries / %d bytes, budget %d", pairs, st.MemoEntries, st.MemoBytes, budget)
			}
		}
		if got := r.Cost(0, VertexID(n-1)); got != hot {
			t.Fatalf("hot pair changed from %v to %v", hot, got)
		}
	}
	st := r.Stats()
	if st.CHQueries != int64(pairs)+1 {
		t.Fatalf("%d point queries for %d distinct pairs plus the hot one: the hot pair was evicted while in use", st.CHQueries, pairs)
	}
	if int64(pairs)*memoEntryBytes < 2*budget {
		t.Fatalf("only %d pairs: the budget of %d bytes was never overrun", pairs, budget)
	}
	// The first pairs are long gone: asking again is a point query, not a hit.
	r.Cost(0, 7)
	if got := r.Stats().CHQueries; got != st.CHQueries+1 {
		t.Fatalf("evicted pair answered without a point query (%d -> %d)", st.CHQueries, got)
	}
}

// TestRouterHitAccounting pins what each call is counted as: a pair's first
// Cost is one point query, every repeat is a memo hit, Path is always a
// point query and never touches the memo, and the obs mirror agrees.
func TestRouterHitAccounting(t *testing.T) {
	g := gridGraph(4)
	reg := obs.NewRegistry()
	r := NewRouter(g, 8).AttachCH(BuildCH(g)).InstrumentWith(reg)
	for round := 0; round < 3; round++ {
		for v := 1; v <= 5; v++ {
			r.Cost(0, VertexID(v))
		}
	}
	r.Path(0, 1)
	r.Cost(3, 3) // self query: counted nowhere
	st := r.Stats()
	if st.Hits != 10 || st.CHQueries != 6 {
		t.Fatalf("hits=%d ch=%d, want 10/6", st.Hits, st.CHQueries)
	}
	if st.MemoEntries != 5 || st.MemoBytes != 5*memoEntryBytes {
		t.Fatalf("memo holds %d entries / %d bytes, want 5 / %d", st.MemoEntries, st.MemoBytes, 5*memoEntryBytes)
	}
	for name, want := range map[string]int64{
		"mtshare_roadnet_cache_hits_total":   10,
		"mtshare_roadnet_cold_queries_total": 6,
		"mtshare_roadnet_ch_queries_total":   6,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := reg.Gauge("mtshare_roadnet_cache_memory_bytes").Value(); got != float64(st.MemoBytes) {
		t.Errorf("memory gauge = %v, want %d", got, st.MemoBytes)
	}
}

func TestRouterConcurrentUse(t *testing.T) {
	g, err := GenerateCity(DefaultCityParams(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, 8).AttachCH(BuildCH(g))
	n := g.NumVertices()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				u := VertexID(rng.Intn(n))
				v := VertexID(rng.Intn(n))
				c := r.Cost(u, v)
				if c < 0 {
					t.Errorf("negative cost %v", c)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestRouterReachable(t *testing.T) {
	g := lineGraph(3)
	r := NewRouter(g, 4).AttachCH(BuildCH(g))
	if !r.Reachable(0, 2) {
		t.Fatal("0->2 should be reachable")
	}
	if r.Reachable(2, 0) {
		t.Fatal("2->0 should not be reachable")
	}
}

// TestRouterWithoutCHPanics pins the Router's one back end: a query that
// would need a search fails loudly until a hierarchy is attached (a self
// query needs none), and attaching nil is refused rather than detaching.
func TestRouterWithoutCHPanics(t *testing.T) {
	g := gridGraph(3)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "AttachCH") {
				t.Fatalf("%s: panic %v, want one naming AttachCH", name, v)
			}
		}()
		f()
	}
	r := NewRouter(g, 4)
	if c := r.Cost(4, 4); c != 0 {
		t.Fatalf("self cost = %v", c)
	}
	mustPanic("Cost", func() { r.Cost(0, 8) })
	mustPanic("Path", func() { r.Path(0, 8) })
	mustPanic("Reachable", func() { r.Reachable(0, 8) })
	mustPanic("AttachCH(nil)", func() { r.AttachCH(nil) })
}

// TestRouterColdPathCHExact pins the cold path: queries answered by the
// hierarchy must be bit-identical to Dijkstra, and the cold paths must be
// valid edge walks.
func TestRouterColdPathCHExact(t *testing.T) {
	p := DefaultCityParams(14, 14)
	p.Seed = 22
	g, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, 64).AttachCH(BuildCH(g))
	rng := rand.New(rand.NewSource(22))
	n := g.NumVertices()
	for i := 0; i < 60; i++ {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		path := r.Path(u, v)
		want, _, ok := g.ShortestPath(u, v)
		if !ok {
			if path != nil {
				t.Fatalf("Path(%d,%d) = %v for unreachable pair", u, v, path)
			}
			continue
		}
		pc, err := g.PathCost(path)
		if err != nil {
			t.Fatalf("Path(%d,%d) is not an edge walk: %v", u, v, err)
		}
		if pc != want {
			t.Fatalf("cold Path cost (%d,%d) = %v, Dijkstra %v", u, v, pc, want)
		}
	}
	if r.Stats().CHQueries == 0 {
		t.Fatal("no CH cold queries ran — the hierarchy backend is not exercised")
	}
}

// BenchmarkRouterCost measures the Router's two states on the repo
// benchmark's 56x56 city with the hierarchy attached: a memoised pair, and a
// pair never asked before.
func BenchmarkRouterCost(b *testing.B) {
	g := benchCity(b)
	ch := BuildCH(g)
	n := g.NumVertices()
	b.Run("memo-hit", func(b *testing.B) {
		r := NewRouter(g, 128).AttachCH(ch)
		for i := 0; i < 1024; i++ {
			r.Cost(VertexID(i%n), VertexID((i*7919+1)%n))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = r.Cost(VertexID(i%1024%n), VertexID((i%1024*7919+1)%n))
		}
	})
	b.Run("point-query", func(b *testing.B) {
		r := NewRouter(g, 128).AttachCH(ch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = r.Cost(VertexID(i%n), VertexID((i/n*104729+i*7919+1)%n))
		}
	})
}
