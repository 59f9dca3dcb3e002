//go:build !race

package roadnet

import "testing"

// The allocation gates: the search kernels allocate what they return and
// nothing else, because their scratch comes from sync.Pools. Not built under
// -race, where sync.Pool drops a quarter of all Puts on purpose.

// TestSSSPAllocs pins a tree build to dist, parent and the result header.
func TestSSSPAllocs(t *testing.T) {
	g := benchCity(t)
	g.SSSP(0) // warm the heap pool
	if got := testing.AllocsPerRun(20, func() { g.SSSP(1) }); got > 3 {
		t.Fatalf("Graph.SSSP allocates %v times per tree, want <= 3", got)
	}
}

// TestCHCostAllocs pins a warm point query at zero: labels, heaps and the
// unpacked path the cost is folded over all live in the pooled workspace.
func TestCHCostAllocs(t *testing.T) {
	g := benchCity(t)
	ch := BuildCH(g)
	n := VertexID(g.NumVertices())
	ch.Cost(0, n-1) // warm the workspace pool
	i := VertexID(0)
	if got := testing.AllocsPerRun(200, func() { i++; ch.Cost(i*7919%n, (i*104729+n/2)%n) }); got != 0 {
		t.Fatalf("warm CH.Cost allocates %v times per query, want 0", got)
	}
}

// TestRouterCostAllocs pins both Router.Cost paths at zero: a memo hit, and
// a miss through the attached hierarchy including its memo insert. Capacity 1
// makes a generation 391 entries, so the warm-up has filled and rotated both
// maps before anything is counted.
func TestRouterCostAllocs(t *testing.T) {
	g := benchCity(t)
	n := VertexID(g.NumVertices())
	r := NewRouter(g, 1).AttachCH(BuildCH(g))
	src := VertexID(0)
	miss := func() { src++; r.Cost(src%n, (src*104729+n/2)%n) }
	for i := 0; i < 2000; i++ {
		miss()
	}
	r.Cost(5, 6)
	if got := testing.AllocsPerRun(200, func() { r.Cost(5, 6) }); got != 0 {
		t.Fatalf("memoised Router.Cost allocates %v times per query, want 0", got)
	}
	before := r.Stats().CHQueries
	if got := testing.AllocsPerRun(200, miss); got != 0 {
		t.Fatalf("missing Router.Cost allocates %v times per query, want 0", got)
	}
	if ran := r.Stats().CHQueries - before; ran < 200 {
		t.Fatalf("only %d CH queries ran; the miss loop did not keep missing", ran)
	}
}
