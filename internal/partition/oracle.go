package partition

import (
	"math"
	"runtime"

	"repro/internal/roadnet"
)

// Oracle is an admissible lower-bound distance estimator over the landmark
// graph (Definitions 7–8): EstimateLB(u, v) never exceeds the true
// shortest-path cost d(u, v), so the dispatch pipeline can discard a
// candidate whose lower-bound detour already violates a deadline without
// consulting the exact router.
//
// The bound is the ALT/landmark triangle inequality restricted to each
// vertex's own partition landmark. With L_u = Landmark(PartitionOf(u)) and
// L_v = Landmark(PartitionOf(v)):
//
//	d(L_u, L_v) <= d(L_u, u) + d(u, v) + d(v, L_v)
//	=> d(u, v) >= LandmarkCost(P(u), P(v)) − fromLM[u] − toLM[v]
//
// where fromLM[u] = d(L_u → u) and toLM[v] = d(v → L_v) are directed
// offsets (forward and reverse Dijkstra from the landmark — on one-way
// grids the two differ). The bound is clamped at 0, so it is admissible by
// construction on any graph, independent of edge-cost geometry.
//
// The offsets live in two flat float64 arrays indexed by vertex — 16 bytes
// per vertex. The landmark-to-landmark cost table and the forward offsets
// come from the Partitioning's landmark-graph searches, so the oracle adds
// no per-query allocation and its precompute is one reverse Dijkstra per
// partition that stops at the partition's own members, parallel over
// partitions.
type Oracle struct {
	pt     *Partitioning
	fromLM []float64 // fromLM[v] = d(landmark(P(v)) → v)
	toLM   []float64 // toLM[v]   = d(v → landmark(P(v)))
}

// NewOracle precomputes the per-vertex landmark offsets of pt. The forward
// offsets are the partitioning's; the work is one reverse Dijkstra per
// partition, from its landmark until its members are settled
// (Graph.ReverseDistancesTo: ReverseSSSP's distances bit for bit), fanned
// over runtime.GOMAXPROCS(0) workers. The result is deterministic — each
// vertex's offsets come from its own partition's search regardless of
// worker schedule.
func NewOracle(pt *Partitioning) *Oracle {
	o := &Oracle{
		pt:     pt,
		fromLM: pt.fromLM,
		toLM:   make([]float64, pt.g.NumVertices()),
	}
	roadnet.ParallelDo(len(pt.parts), runtime.GOMAXPROCS(0), func(_, p int) {
		members := pt.parts[p]
		for i, d := range pt.g.ReverseDistancesTo(pt.landmark[p], members) {
			o.toLM[members[i]] = d
		}
	})
	return o
}

// EstimateLB returns an admissible lower bound on the shortest-path cost
// from u to v in meters: EstimateLB(u, v) <= d(u, v) always, and
// EstimateLB(u, u) == 0. It returns +Inf only when v is provably
// unreachable from u (the landmarks cannot reach each other while both
// vertices reach theirs). The estimate is two array loads and one table
// lookup — no allocation, safe for concurrent use.
func (o *Oracle) EstimateLB(u, v roadnet.VertexID) float64 {
	if u == v {
		return 0
	}
	fu := o.fromLM[u]
	tv := o.toLM[v]
	if math.IsInf(fu, 1) || math.IsInf(tv, 1) {
		// The vertex and its own landmark are disconnected; the triangle
		// bound degenerates, so fall back to the trivial lower bound.
		return 0
	}
	lb := o.pt.lmCost[o.pt.assign[u]][o.pt.assign[v]] - fu - tv
	if lb < 0 {
		return 0
	}
	// When lmCost is +Inf with both offsets finite, any u→v path would
	// splice into a landmark-to-landmark path, so d(u,v) is +Inf too and
	// the bound stays exact (and admissible).
	return lb
}

// MemoryBytes estimates the oracle's heap footprint (the offset arrays;
// the landmark cost table is owned by the Partitioning).
func (o *Oracle) MemoryBytes() int64 {
	return int64(len(o.fromLM)+len(o.toLM))*8 + 48
}
