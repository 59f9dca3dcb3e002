package roadnet

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// gridGraph builds an n x n bidirectional lattice with edge cost 100.
func gridGraph(n int) *Graph {
	g := NewGraph(n * n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			g.AddVertex(geo.Point{Lat: 30 + float64(r)*0.001, Lng: 104 + float64(c)*0.001})
		}
	}
	id := func(r, c int) VertexID { return VertexID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				g.AddEdge(id(r, c), id(r, c+1), 100)
				g.AddEdge(id(r, c+1), id(r, c), 100)
			}
			if r+1 < n {
				g.AddEdge(id(r, c), id(r+1, c), 100)
				g.AddEdge(id(r+1, c), id(r, c), 100)
			}
		}
	}
	return g
}

func TestSSSPLine(t *testing.T) {
	g := lineGraph(5)
	res := g.SSSP(0)
	for i := 0; i < 5; i++ {
		if res.Dist[i] != float64(i)*100 {
			t.Fatalf("Dist[%d] = %v", i, res.Dist[i])
		}
	}
	if res.Parent[0] != Invalid {
		t.Fatal("source parent not Invalid")
	}
	path := res.PathTo(4)
	want := []VertexID{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestSSSPUnreachable(t *testing.T) {
	g := lineGraph(3)
	res := g.SSSP(2) // no edges out of 2
	if res.Reachable(0) || res.Reachable(1) {
		t.Fatal("reported unreachable vertices as reachable")
	}
	if res.PathTo(0) != nil {
		t.Fatal("PathTo returned non-nil for unreachable vertex")
	}
}

func TestShortestPathGrid(t *testing.T) {
	g := gridGraph(5)
	cost, path, ok := g.ShortestPath(0, VertexID(24)) // corner to corner
	if !ok {
		t.Fatal("no path found")
	}
	if cost != 800 { // 4 right + 4 down, 100 each
		t.Fatalf("cost = %v, want 800", cost)
	}
	if len(path) != 9 {
		t.Fatalf("path len = %d, want 9", len(path))
	}
	if path[0] != 0 || path[len(path)-1] != 24 {
		t.Fatalf("path endpoints = %v", path)
	}
	// Every hop must be an actual edge.
	if c, err := g.PathCost(path); err != nil || c != cost {
		t.Fatalf("PathCost(path) = %v, %v", c, err)
	}
}

func TestShortestPathSameVertex(t *testing.T) {
	g := gridGraph(3)
	cost, path, ok := g.ShortestPath(4, 4)
	if !ok || cost != 0 || len(path) != 1 || path[0] != 4 {
		t.Fatalf("self path = %v %v %v", cost, path, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := lineGraph(3)
	if _, _, ok := g.ShortestPath(2, 0); ok {
		t.Fatal("found path against edge direction")
	}
}

func TestShortestPathMatchesSSSP(t *testing.T) {
	g := gridGraph(8)
	rng := rand.New(rand.NewSource(7))
	res := g.SSSP(0)
	for i := 0; i < 30; i++ {
		dst := VertexID(rng.Intn(g.NumVertices()))
		cost, _, ok := g.ShortestPath(0, dst)
		if !ok {
			t.Fatalf("unreachable %d in connected grid", dst)
		}
		if math.Abs(cost-res.Dist[dst]) > 1e-9 {
			t.Fatalf("ShortestPath=%v SSSP=%v for dst %d", cost, res.Dist[dst], dst)
		}
	}
}

// The TestRestrictedShortestPath* tests pin WeightedShortestPath's allowed
// set, the restriction Alg. 4 (and ablate-filter) route through.
func TestRestrictedShortestPath(t *testing.T) {
	g := gridGraph(3)
	// Block the centre vertex (4): 0 -> 8 must route around it.
	cost, path, ok := g.WeightedShortestPath(0, 8, func(v VertexID) bool { return v != 4 }, nil)
	if !ok {
		t.Fatal("no restricted path")
	}
	if cost != 400 {
		t.Fatalf("restricted cost = %v, want 400", cost)
	}
	for _, v := range path {
		if v == 4 {
			t.Fatal("restricted path used blocked vertex")
		}
	}
}

func TestRestrictedShortestPathEndpointsAlwaysAllowed(t *testing.T) {
	g := gridGraph(3)
	// allowed rejects everything; src and dst must still be usable, and a
	// path exists only if they are adjacent.
	_, _, ok := g.WeightedShortestPath(0, 1, func(VertexID) bool { return false }, nil)
	if !ok {
		t.Fatal("adjacent src->dst should be reachable when everything else is blocked")
	}
	if _, _, ok := g.WeightedShortestPath(0, 8, func(VertexID) bool { return false }, nil); ok {
		t.Fatal("found path through fully blocked interior")
	}
}

// TestRestrictedShortestPathExcludedDestination pins the endpoint
// override: an allowed set that excludes the destination (and only the
// destination) must not make it unreachable — src and dst are usable by
// definition, so the result matches the unrestricted query bit for bit.
func TestRestrictedShortestPathExcludedDestination(t *testing.T) {
	p := DefaultCityParams(8, 8)
	p.Seed = 17
	g, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := VertexID(3), VertexID(g.NumVertices()-2)
	want, wantPath, wok := g.ShortestPath(src, dst)
	if !wok {
		t.Fatalf("%d->%d unreachable in connected city", src, dst)
	}
	got, path, ok := g.WeightedShortestPath(src, dst, func(v VertexID) bool { return v != dst }, nil)
	if !ok {
		t.Fatal("excluding the destination from the allowed set made it unreachable")
	}
	if got != want {
		t.Fatalf("restricted cost %v != unrestricted %v", got, want)
	}
	if len(path) != len(wantPath) || path[len(path)-1] != dst {
		t.Fatalf("restricted path %v, want %v", path, wantPath)
	}
}

// TestWeightedShortestPathZeroWeights pins the degenerate weighting: an
// all-zero vertex weight function must reduce WeightedShortestPath to the
// plain shortest path, bit for bit, with and without an allowed set.
func TestWeightedShortestPathZeroWeights(t *testing.T) {
	p := DefaultCityParams(8, 8)
	p.Seed = 18
	g, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	zero := func(VertexID) float64 { return 0 }
	rng := rand.New(rand.NewSource(18))
	n := g.NumVertices()
	for i := 0; i < 25; i++ {
		src := VertexID(rng.Intn(n))
		dst := VertexID(rng.Intn(n))
		want, wantPath, wok := g.ShortestPath(src, dst)
		got, path, ok := g.WeightedShortestPath(src, dst, nil, zero)
		if ok != wok {
			t.Fatalf("(%d,%d): weighted ok=%v plain ok=%v", src, dst, ok, wok)
		}
		if !ok {
			continue
		}
		if got != want || len(path) != len(wantPath) {
			t.Fatalf("(%d,%d): zero-weight cost %v (len %d), plain %v (len %d)",
				src, dst, got, len(path), want, len(wantPath))
		}
		allowAll := func(VertexID) bool { return true }
		if got2, _, ok2 := g.WeightedShortestPath(src, dst, allowAll, zero); !ok2 || got2 != got {
			t.Fatalf("(%d,%d): allowed-set variant diverged: %v vs %v", src, dst, got2, got)
		}
	}
}

func TestWeightedShortestPathSteersAroundWeights(t *testing.T) {
	// Two parallel 2-hop routes 0->1->3 and 0->2->3 with equal edge costs;
	// a large vertex weight on 1 must push the path through 2.
	g := NewGraph(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(geo.Point{Lat: 30, Lng: 104 + float64(i)*0.001})
	}
	g.AddEdge(0, 1, 100)
	g.AddEdge(1, 3, 100)
	g.AddEdge(0, 2, 100)
	g.AddEdge(2, 3, 100)
	w := func(v VertexID) float64 {
		if v == 1 {
			return 1000
		}
		return 0
	}
	_, path, ok := g.WeightedShortestPath(0, 3, nil, w)
	if !ok {
		t.Fatal("no weighted path")
	}
	for _, v := range path {
		if v == 1 {
			t.Fatal("weighted path went through penalised vertex")
		}
	}
}

func TestReverseSSSPLine(t *testing.T) {
	// The line graph is directed 0→1→2→3→4, so the reverse tree from the
	// sink holds distances *into* it and the source is unreachable from
	// everything.
	g := lineGraph(5)
	res := g.ReverseSSSP(4)
	for i := 0; i < 5; i++ {
		if want := float64(4-i) * 100; res.Dist[i] != want {
			t.Fatalf("ReverseSSSP Dist[%d] = %v, want %v", i, res.Dist[i], want)
		}
	}
	from0 := g.ReverseSSSP(0)
	if from0.Reachable(1) || from0.Reachable(4) {
		t.Fatal("ReverseSSSP(0) reports vertices that cannot reach 0 as reachable")
	}
}

func TestReverseSSSPMatchesForward(t *testing.T) {
	// d(v → src) from the reverse tree must equal SSSP(v).Dist[src] for
	// every vertex, including on a graph with asymmetric costs.
	g := gridGraph(5)
	rng := rand.New(rand.NewSource(17))
	// Perturb: add a few one-way shortcuts so forward and reverse
	// distances genuinely differ.
	n := g.NumVertices()
	for i := 0; i < 10; i++ {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v, 50+rng.Float64()*200)
		}
	}
	for _, src := range []VertexID{0, VertexID(n / 2), VertexID(n - 1)} {
		rev := g.ReverseSSSP(src)
		for v := 0; v < n; v++ {
			want := g.SSSP(VertexID(v)).Dist[src]
			if rev.Dist[v] != want && !(math.IsInf(rev.Dist[v], 1) && math.IsInf(want, 1)) {
				t.Fatalf("ReverseSSSP(%d).Dist[%d] = %v, forward %v", src, v, rev.Dist[v], want)
			}
		}
	}
}

func TestSSSPTriangleInequalityProperty(t *testing.T) {
	// For any u, v, w: dist(u,w) <= dist(u,v) + dist(v,w).
	g := gridGraph(6)
	n := g.NumVertices()
	trees := make([]*SSSPResult, n)
	for v := 0; v < n; v++ {
		trees[v] = g.SSSP(VertexID(v))
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		u, v, w := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		if trees[u].Dist[w] > trees[u].Dist[v]+trees[v].Dist[w]+1e-9 {
			t.Fatalf("triangle inequality violated: d(%d,%d)=%v > %v + %v",
				u, w, trees[u].Dist[w], trees[u].Dist[v], trees[v].Dist[w])
		}
	}
}

// refPQ and refSSSP are the SSSP this package shipped before minHeap: boxed
// items sifted by container/heap. They stay as the oracle minHeap's pop
// order is held to.
type refPQ []heapItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].prio < q[j].prio }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(heapItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func refSSSP(adj [][]Arc, src VertexID) *SSSPResult {
	dist := make([]float64, len(adj))
	parent := make([]VertexID, len(adj))
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = Invalid
	}
	dist[src] = 0
	q := refPQ{{v: src, prio: 0}}
	for len(q) > 0 {
		it := heap.Pop(&q).(heapItem)
		if it.prio > dist[it.v] {
			continue
		}
		for _, a := range adj[it.v] {
			if nd := it.prio + a.Cost; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = it.v
				heap.Push(&q, heapItem{v: a.To, prio: nd})
			}
		}
	}
	return &SSSPResult{Source: src, Dist: dist, Parent: parent}
}

// TestSSSPMatchesContainerHeapOracle holds the typed heap to container/heap's
// pop order: forward and reverse trees must agree with the oracle in every
// Dist bit and every Parent — on the benchmark city (unique shortest paths),
// on a unit-cost grid where every equal-length path ties exactly and Parent
// is decided by pop order alone, and on a graph with a component no search
// reaches.
func TestSSSPMatchesContainerHeapOracle(t *testing.T) {
	split := gridGraph(12)
	island := split.AddVertex(geo.Point{Lat: 31, Lng: 105})
	split.AddEdge(island, split.AddVertex(geo.Point{Lat: 31, Lng: 105.001}), 50)
	split.AddEdge(island, 0, 70) // the island reaches the grid, never the reverse
	for name, g := range map[string]*Graph{"city56": benchCity(t), "unitgrid": gridGraph(24), "unreachable": split} {
		n := g.NumVertices()
		for src := 0; src < n; src += 1 + n/150 {
			for dir, adj := range map[string][][]Arc{"forward": g.out, "reverse": g.in} {
				got, want := sssp(adj, VertexID(src)), refSSSP(adj, VertexID(src))
				for v := range want.Dist {
					if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) || got.Parent[v] != want.Parent[v] {
						t.Fatalf("%s %s src=%d v=%d: dist %v parent %d, oracle dist %v parent %d",
							name, dir, src, v, got.Dist[v], got.Parent[v], want.Dist[v], want.Parent[v])
					}
				}
			}
		}
	}
}

// TestDistancesToMatchesSSSP holds the target-bounded searches to the full
// trees bit for bit, forward and reverse: on the benchmark city, a tied
// unit-cost grid and a one-way ring, from sampled sources, with the source
// among the targets, duplicate targets and — on the split graph and the
// ring's detached vertex — unreachable ones that run the search to
// exhaustion. Workspaces move between graphs of different sizes through the
// pool.
func TestDistancesToMatchesSSSP(t *testing.T) {
	split := gridGraph(12)
	island := split.AddVertex(geo.Point{Lat: 31, Lng: 105})
	split.AddEdge(island, split.AddVertex(geo.Point{Lat: 31, Lng: 105.001}), 50)
	split.AddEdge(island, 0, 70) // the island reaches the grid, never the reverse
	ring := ringGraph(40)
	ring.AddVertex(geo.Point{Lat: 31, Lng: 105}) // no road in or out
	rng := rand.New(rand.NewSource(9))
	for name, g := range map[string]*Graph{"city56": benchCity(t), "split": split, "ring": ring} {
		n := g.NumVertices()
		for src := 0; src < n; src += 1 + n/60 {
			targets := []VertexID{VertexID(src)}
			for i := rng.Intn(30); i >= 0; i-- {
				targets = append(targets, VertexID(rng.Intn(n)))
			}
			targets = append(targets, targets[len(targets)/2], VertexID(n-1), VertexID(n-1))
			want := g.SSSP(VertexID(src)).Dist
			for i, d := range g.DistancesTo(VertexID(src), targets) {
				if math.Float64bits(d) != math.Float64bits(want[targets[i]]) {
					t.Fatalf("%s src=%d target %d: %v, SSSP %v", name, src, targets[i], d, want[targets[i]])
				}
			}
			back := g.ReverseSSSP(VertexID(src)).Dist
			for i, d := range g.ReverseDistancesTo(VertexID(src), targets) {
				if math.Float64bits(d) != math.Float64bits(back[targets[i]]) {
					t.Fatalf("%s src=%d target %d: reverse %v, ReverseSSSP %v", name, src, targets[i], d, back[targets[i]])
				}
			}
		}
		if got := g.DistancesTo(0, nil); len(got) != 0 {
			t.Fatalf("%s: no targets gave %v", name, got)
		}
		if got := g.ReverseDistancesTo(0, nil); len(got) != 0 {
			t.Fatalf("%s: no reverse targets gave %v", name, got)
		}
	}
}

// TestDistancesToGenerationWrap: after the workspace generation wraps, labels
// and target marks of 2^32 searches ago must not read as live.
func TestDistancesToGenerationWrap(t *testing.T) {
	g := gridGraph(10)
	n := g.NumVertices()
	ws := new(settleWS)
	ws.begin(n)
	for v := range ws.stamp { // every vertex labelled at 0 and wanted in generation 1
		ws.stamp[v], ws.want[v] = 1, 1
	}
	ws.gen = math.MaxUint32
	targets := []VertexID{VertexID(n - 1), 5}
	got := distancesTo(ws, g.out, 0, targets)
	if ws.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", ws.gen)
	}
	want := g.SSSP(0).Dist
	for i, v := range targets {
		if got[i] != want[v] {
			t.Fatalf("after wrap: target %d = %v, SSSP %v", v, got[i], want[v])
		}
	}
}

func BenchmarkSSSPCity(b *testing.B) {
	g, err := GenerateCity(DefaultCityParams(40, 40))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.SSSP(VertexID(i % g.NumVertices()))
	}
}

// benchCity is the repo benchmark's steady/hotspot city (bench/workload.go:
// 56x56, world seed 1), so BenchmarkSSSP and BenchmarkCHCost reproduce the
// ledger's roadnet.sssp_mean_us and roadnet.ch_cost_us with go test -bench.
func benchCity(b testing.TB) *Graph {
	b.Helper()
	p := DefaultCityParams(56, 56)
	p.Seed = 1
	g, err := GenerateCity(p)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkSSSP(b *testing.B) {
	g := benchCity(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.SSSP(VertexID((i * 7919) % g.NumVertices()))
	}
}

func BenchmarkPointToPointDijkstra(b *testing.B) {
	g, err := GenerateCity(DefaultCityParams(40, 40))
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = g.ShortestPath(VertexID(i%n), VertexID((i*7919)%n))
	}
}
