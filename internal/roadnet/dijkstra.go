package roadnet

import (
	"math"
	"sync"
)

// heapItem is a priority-queue entry for Dijkstra.
type heapItem struct {
	v    VertexID
	prio float64
}

// minHeap is a value-typed binary min-heap of heapItems ordered by prio
// alone. We use lazy deletion (stale entries are skipped on pop), which
// avoids decrease-key bookkeeping and is faster in practice on sparse road
// graphs.
//
// push and pop sift exactly as container/heap's up and down do — same
// parent and child choice, same strict prio comparison, a moved hole where
// the library swaps — so entries of equal prio pop in the library's order.
// Every Parent tie-break, and with it every golden log, depends on that
// order; do not add a vertex tie-break or change the sift.
type minHeap []heapItem

func (h *minHeap) push(v VertexID, prio float64) {
	q := append(*h, heapItem{})
	*h = q
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(prio < q[i].prio) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = heapItem{v: v, prio: prio}
}

func (h *minHeap) pop() heapItem {
	q := *h
	n := len(q) - 1
	top, x := q[0], q[n]
	*h = q[:n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].prio < q[j].prio {
			j = r
		}
		if !(q[j].prio < x.prio) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = x
	return top
}

// heapPool recycles heap backing arrays across searches, so a search
// allocates only what it returns.
var heapPool = sync.Pool{New: func() any { return new(minHeap) }}

// getHeap returns an empty pooled heap; hand it back with heapPool.Put.
func getHeap() *minHeap {
	h := heapPool.Get().(*minHeap)
	*h = (*h)[:0]
	return h
}

// SSSPResult holds a full single-source shortest-path tree: distances in
// meters and the parent of each vertex on its shortest path from the source
// (Invalid for the source itself and unreachable vertices).
type SSSPResult struct {
	Source VertexID
	Dist   []float64
	Parent []VertexID
}

// Reachable reports whether v is reachable from the source.
func (r *SSSPResult) Reachable(v VertexID) bool { return !math.IsInf(r.Dist[v], 1) }

// PathTo reconstructs the shortest path from the source to v, inclusive of
// both endpoints. It returns nil if v is unreachable.
func (r *SSSPResult) PathTo(v VertexID) []VertexID {
	if !r.Reachable(v) {
		return nil
	}
	var rev []VertexID
	for u := v; u != Invalid; u = r.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// MemoryBytes estimates the heap footprint of the result, used by the
// shortest-path cache for budgeting.
func (r *SSSPResult) MemoryBytes() int {
	return 8*len(r.Dist) + 4*len(r.Parent) + 32
}

// SSSP runs Dijkstra's algorithm from src over the whole graph and returns
// the full shortest-path tree.
func (g *Graph) SSSP(src VertexID) *SSSPResult { return sssp(g.out, src) }

// ReverseSSSP runs Dijkstra's algorithm from src over the reversed graph:
// Dist[v] is the cost of the shortest path from v *to* src (whereas
// SSSP's Dist[v] is src-to-v). The landmark distance oracle uses it to
// precompute vertex-to-landmark offsets on directed road networks, where
// d(v, L) and d(L, v) differ. Parent links are on the reversed graph:
// Parent[v] is the successor of v on its shortest path toward src.
//
// g.in[v] holds the incoming arcs of v with Arc.To being the arc's source
// vertex, so relaxing them walks shortest paths backwards.
func (g *Graph) ReverseSSSP(src VertexID) *SSSPResult { return sssp(g.in, src) }

// sssp is Dijkstra over the adjacency lists adj. It allocates the result
// and nothing else: the heap's backing array comes from heapPool.
func sssp(adj [][]Arc, src VertexID) *SSSPResult {
	dist := make([]float64, len(adj))
	parent := make([]VertexID, len(adj))
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = Invalid
	}
	dist[src] = 0
	q := getHeap()
	defer heapPool.Put(q)
	q.push(src, 0)
	for len(*q) > 0 {
		it := q.pop()
		if it.prio > dist[it.v] {
			continue // stale entry
		}
		for _, a := range adj[it.v] {
			if nd := it.prio + a.Cost; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = it.v
				q.push(a.To, nd)
			}
		}
	}
	return &SSSPResult{Source: src, Dist: dist, Parent: parent}
}

// DistancesTo returns the shortest-path cost from src to each of targets, in
// order: SSSP(src).Dist[t] bit for bit, +Inf when t is unreachable. It runs
// sssp's heap and relaxations and stops once every target is settled. A
// settled label is final, and the search computed it with the same
// operations in the same order as the full tree, so stopping early changes
// no bit; an unreachable target runs the search to exhaustion.
//
// The binary minHeap is also the faster heap here: these searches grow
// large frontiers, on which the CH's 4-ary (prio, v) heap ran 25–35 %
// slower per search (56x56 city, 2-vCPU Xeon host).
func (g *Graph) DistancesTo(src VertexID, targets []VertexID) []float64 {
	ws := settlePool.Get().(*settleWS)
	defer settlePool.Put(ws)
	return distancesTo(ws, g.out, src, targets)
}

// ReverseDistancesTo is DistancesTo over the reversed graph: the cost from
// each of targets *to* src, ReverseSSSP(src).Dist[t] bit for bit. The
// landmark oracle reads a partition's vertex-to-landmark offsets with it.
func (g *Graph) ReverseDistancesTo(src VertexID, targets []VertexID) []float64 {
	ws := settlePool.Get().(*settleWS)
	defer settlePool.Put(ws)
	return distancesTo(ws, g.in, src, targets)
}

// distancesTo is the target-bounded Dijkstra over the adjacency lists adj.
// It allocates the result and nothing else.
func distancesTo(ws *settleWS, adj [][]Arc, src VertexID, targets []VertexID) []float64 {
	ws.begin(len(adj))
	gen := ws.gen
	left := 0
	for _, t := range targets {
		if ws.want[t] != gen {
			ws.want[t] = gen
			left++
		}
	}
	if left > 0 {
		ws.label(src, 0)
	}
	for len(ws.heap) > 0 {
		it := ws.heap.pop()
		if it.prio > ws.dist[it.v] {
			continue // stale entry
		}
		if ws.want[it.v] == gen {
			ws.want[it.v] = 0
			if left--; left == 0 {
				break
			}
		}
		for _, a := range adj[it.v] {
			if nd := it.prio + a.Cost; nd < ws.distOf(a.To) {
				ws.label(a.To, nd)
			}
		}
	}
	out := make([]float64, len(targets))
	for i, t := range targets {
		out[i] = ws.distOf(t)
	}
	return out
}

// settleWS is the pooled scratch of one DistancesTo search: dist[v] is live
// only while stamp[v] equals gen, and want[v] == gen marks an unsettled
// target, so starting a search is one increment, not an O(V) clear.
type settleWS struct {
	gen   uint32
	stamp []uint32
	want  []uint32
	dist  []float64
	heap  minHeap
}

// settlePool is shared by every graph in the process, so begin sizes each
// workspace to the vertex count of the graph about to use it.
var settlePool = sync.Pool{New: func() any { return new(settleWS) }}

func (ws *settleWS) begin(n int) {
	if len(ws.stamp) < n { // new, or last used by a smaller graph
		ws.stamp, ws.want, ws.dist = make([]uint32, n), make([]uint32, n), make([]float64, n)
		ws.gen = 0
	}
	ws.gen++
	if ws.gen == 0 { // wrapped: stamps from 2^32 searches ago would read as live
		clear(ws.stamp)
		clear(ws.want)
		ws.gen = 1
	}
	ws.heap = ws.heap[:0]
}

func (ws *settleWS) distOf(v VertexID) float64 {
	if ws.stamp[v] != ws.gen {
		return math.Inf(1)
	}
	return ws.dist[v]
}

func (ws *settleWS) label(v VertexID, d float64) {
	ws.dist[v], ws.stamp[v] = d, ws.gen
	ws.heap.push(v, d)
}

// ShortestPath returns the min-cost path from src to dst and its cost using
// Dijkstra with early termination. ok is false when dst is unreachable.
func (g *Graph) ShortestPath(src, dst VertexID) (cost float64, path []VertexID, ok bool) {
	return g.shortestPath(src, dst, nil, nil)
}

// WeightedShortestPath runs Dijkstra where relaxing an edge (u,v) costs
// edgeCost + vertexWeight(v). Probabilistic routing (Alg. 4, step 3) uses
// vertex weights 1/ψ_c to steer the path through partitions with high
// probability of meeting suitable offline requests. The returned cost is
// the combined cost; callers needing the pure travel cost should use
// Graph.PathCost on the returned path.
//
// A non-nil allowed confines the search to the vertices it accepts; src
// and dst are always allowed, matching the paper's partition-filtered
// routing, where the event endpoints' own partitions are always retained.
// A nil vertexWeight adds nothing, so the cost is the travel cost.
func (g *Graph) WeightedShortestPath(src, dst VertexID, allowed func(VertexID) bool, vertexWeight func(VertexID) float64) (cost float64, path []VertexID, ok bool) {
	return g.shortestPath(src, dst, allowed, vertexWeight)
}

// shortestPath is the common point-to-point Dijkstra with optional vertex
// filtering and additive vertex weights. It allocates per call; hot paths
// that repeatedly query the same source should use the Router cache.
func (g *Graph) shortestPath(src, dst VertexID, allowed func(VertexID) bool, vertexWeight func(VertexID) float64) (float64, []VertexID, bool) {
	if src == dst {
		return 0, []VertexID{src}, true
	}
	dist := make(map[VertexID]float64, 256)
	parent := make(map[VertexID]VertexID, 256)
	dist[src] = 0
	q := getHeap()
	defer heapPool.Put(q)
	q.push(src, 0)
	for len(*q) > 0 {
		it := q.pop()
		if d, seen := dist[it.v]; seen && it.prio > d {
			continue
		}
		if it.v == dst {
			return it.prio, reconstruct(parent, src, dst), true
		}
		for _, a := range g.out[it.v] {
			if a.To != dst && a.To != src && allowed != nil && !allowed(a.To) {
				continue
			}
			nd := it.prio + a.Cost
			if vertexWeight != nil {
				nd += vertexWeight(a.To)
			}
			if d, seen := dist[a.To]; !seen || nd < d {
				dist[a.To] = nd
				parent[a.To] = it.v
				q.push(a.To, nd)
			}
		}
	}
	return 0, nil, false
}

func reconstruct(parent map[VertexID]VertexID, src, dst VertexID) []VertexID {
	var rev []VertexID
	for u := dst; ; {
		rev = append(rev, u)
		if u == src {
			break
		}
		u = parent[u]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
