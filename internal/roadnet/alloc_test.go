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
	ch := BuildCH(g, 0)
	n := VertexID(g.NumVertices())
	ch.Cost(0, n-1) // warm the workspace pool
	i := VertexID(0)
	if got := testing.AllocsPerRun(200, func() { i++; ch.Cost(i*7919%n, (i*104729+n/2)%n) }); got != 0 {
		t.Fatalf("warm CH.Cost allocates %v times per query, want 0", got)
	}
}

// TestRouterCostAllocs pins both Router.Cost paths at zero: the cached-tree
// lookup and the cold point query through the attached hierarchy.
func TestRouterCostAllocs(t *testing.T) {
	g := benchCity(t)
	n := VertexID(g.NumVertices())
	r := NewRouter(g, 8).AttachCH(BuildCH(g, 0))
	r.Warm([]VertexID{5})
	i := VertexID(0)
	if got := testing.AllocsPerRun(200, func() { i++; r.Cost(5, i*7919%n) }); got != 0 {
		t.Fatalf("cached Router.Cost allocates %v times per query, want 0", got)
	}
	r.Cost(6, n-1) // warm the workspace pool
	src := VertexID(100)
	if got := testing.AllocsPerRun(200, func() { src++; r.Cost(src, (src*104729+n/2)%n) }); got != 0 {
		t.Fatalf("cold Router.Cost allocates %v times per query, want 0", got)
	}
	if st := r.Stats(); st.CHQueries < 200 {
		t.Fatalf("only %d CH queries ran; the cold loop did not stay cold", st.CHQueries)
	}
}
