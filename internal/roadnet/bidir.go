package roadnet

import "math"

// BidirectionalShortestPath runs Dijkstra simultaneously from src (over
// outgoing arcs) and dst (over incoming arcs), meeting in the middle. On
// city-scale graphs it explores roughly half the vertices of plain
// point-to-point Dijkstra, which matters for the cold paths the Router
// cache does not cover.
func (g *Graph) BidirectionalShortestPath(src, dst VertexID) (float64, []VertexID, bool) {
	if src == dst {
		return 0, []VertexID{src}, true
	}
	type side struct {
		dist   map[VertexID]float64
		parent map[VertexID]VertexID
		queue  *minHeap
	}
	fwd := &side{dist: map[VertexID]float64{src: 0}, parent: map[VertexID]VertexID{}, queue: getHeap()}
	bwd := &side{dist: map[VertexID]float64{dst: 0}, parent: map[VertexID]VertexID{}, queue: getHeap()}
	defer heapPool.Put(fwd.queue)
	defer heapPool.Put(bwd.queue)
	fwd.queue.push(src, 0)
	bwd.queue.push(dst, 0)

	best := math.Inf(1)
	var meet VertexID = Invalid

	expand := func(s, other *side, arcs func(VertexID) []Arc) {
		if len(*s.queue) == 0 {
			return
		}
		it := s.queue.pop()
		if d, ok := s.dist[it.v]; ok && it.prio > d {
			return
		}
		for _, a := range arcs(it.v) {
			nd := it.prio + a.Cost
			if d, seen := s.dist[a.To]; !seen || nd < d {
				s.dist[a.To] = nd
				s.parent[a.To] = it.v
				s.queue.push(a.To, nd)
			}
			if od, seen := other.dist[a.To]; seen {
				if total := nd + od; total < best {
					best = total
					meet = a.To
				}
			}
		}
	}

	for len(*fwd.queue) > 0 || len(*bwd.queue) > 0 {
		// Termination: when the smallest keys on both frontiers can no
		// longer improve the best meeting, stop.
		fMin, bMin := math.Inf(1), math.Inf(1)
		if len(*fwd.queue) > 0 {
			fMin = (*fwd.queue)[0].prio
		}
		if len(*bwd.queue) > 0 {
			bMin = (*bwd.queue)[0].prio
		}
		if fMin+bMin >= best {
			break
		}
		if fMin <= bMin {
			expand(fwd, bwd, g.Out)
		} else {
			expand(bwd, fwd, func(v VertexID) []Arc { return g.In(v) })
		}
	}
	if meet == Invalid {
		return 0, nil, false
	}
	// Stitch the two half-paths.
	var rev []VertexID
	for u := meet; ; {
		rev = append(rev, u)
		if u == src {
			break
		}
		p, ok := fwd.parent[u]
		if !ok {
			break
		}
		u = p
	}
	path := make([]VertexID, 0, len(rev)+8)
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	for u := meet; u != dst; {
		p, ok := bwd.parent[u]
		if !ok {
			break
		}
		path = append(path, p)
		u = p
	}
	return best, path, true
}

// ALT is an A*-with-landmarks router: it precomputes forward and backward
// distance vectors from a handful of landmark vertices and uses the
// triangle inequality |d(L,t) − d(L,v)| ≤ d(v,t) as an admissible,
// usually much tighter heuristic than the straight-line distance. It is
// the classic middle ground between plain Dijkstra and a full all-pairs
// table — the paper's assumed O(1) query cache made concrete at bounded
// memory.
type ALT struct {
	g    *Graph
	from [][]float64 // from[i][v] = dist(landmark_i, v)
	to   [][]float64 // to[i][v]   = dist(v, landmark_i)
}

// NewALT builds an ALT router over the given landmark vertices. Costs are
// 16·len(landmarks) bytes per graph vertex.
func NewALT(g *Graph, landmarks []VertexID) *ALT {
	alt := &ALT{g: g}
	rev := reverseGraph(g)
	for _, l := range landmarks {
		alt.from = append(alt.from, g.SSSP(l).Dist)
		alt.to = append(alt.to, rev.SSSP(l).Dist)
	}
	return alt
}

// reverseGraph builds the graph with every arc flipped.
func reverseGraph(g *Graph) *Graph {
	r := NewGraph(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		r.AddVertex(g.Point(VertexID(v)))
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, a := range g.Out(VertexID(v)) {
			r.AddEdge(a.To, VertexID(v), a.Cost)
		}
	}
	return r
}

// heuristic returns a lower bound on dist(v, t).
func (alt *ALT) heuristic(v, t VertexID) float64 {
	var h float64
	for i := range alt.from {
		// d(L,t) − d(L,v) ≤ d(v,t)  and  d(v,L) − d(t,L) ≤ d(v,t)
		if b := alt.from[i][t] - alt.from[i][v]; b > h {
			h = b
		}
		if b := alt.to[i][v] - alt.to[i][t]; b > h {
			h = b
		}
	}
	return h
}

// ShortestPath answers a point-to-point query with landmark-guided A*.
func (alt *ALT) ShortestPath(src, dst VertexID) (float64, []VertexID, bool) {
	g := alt.g
	if src == dst {
		return 0, []VertexID{src}, true
	}
	dist := make(map[VertexID]float64, 256)
	parent := make(map[VertexID]VertexID, 256)
	dist[src] = 0
	q := getHeap()
	defer heapPool.Put(q)
	q.push(src, alt.heuristic(src, dst))
	for len(*q) > 0 {
		it := q.pop()
		d := dist[it.v]
		if it.prio > d+alt.heuristic(it.v, dst)+1e-9 {
			continue
		}
		if it.v == dst {
			return d, reconstruct(parent, src, dst), true
		}
		for _, a := range g.Out(it.v) {
			nd := d + a.Cost
			if old, seen := dist[a.To]; !seen || nd < old {
				dist[a.To] = nd
				parent[a.To] = it.v
				q.push(a.To, nd+alt.heuristic(a.To, dst))
			}
		}
	}
	return 0, nil, false
}

// MemoryBytes reports the precomputed table size.
func (alt *ALT) MemoryBytes() int64 {
	var b int64
	for i := range alt.from {
		b += int64(len(alt.from[i])+len(alt.to[i])) * 8
	}
	return b
}
