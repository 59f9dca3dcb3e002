package roadnet

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// CH is a contraction hierarchy over a Graph: a preprocessing structure
// that answers exact point-to-point shortest-path queries in microseconds
// by searching only "upward" arcs of a precomputed vertex ordering
// (Geisberger et al.; the many-to-many taxi-sharing engines in the related
// work build on the same structure). The paper assumes O(1) distance
// queries from a precomputed all-pairs table (§V-A4); a CH delivers the
// same effect at city scale in linear-ish memory.
//
// Determinism contract: construction is a pure function of the graph,
// serial, and bit-identical at every GOMAXPROCS. Node order uses integer
// priorities (edge difference + contracted neighbors) with (priority,
// VertexID) tie-breaks, adjacency is kept in ID-sorted slices (never
// ranged-over maps), and witness searches use ID tie-broken heaps.
//
// Exactness contract: ShortestPath unpacks the shortcut arcs to the full
// vertex path and recomputes the cost as a left-to-right fold of original
// edge costs — the same float association Dijkstra's relaxation produces —
// so returned costs are bit-identical to Graph.ShortestPath/SSSP, not
// merely equal within rounding. CH-internal sums (shortcut costs) are used
// only to order the search, never returned.
//
// CH is immutable after construction and safe for concurrent use.
type CH struct {
	g    *Graph
	rank []int32 // rank[v] = contraction order of v (0 = first contracted)
	// up[v] holds the arcs (v -> w) of the remaining graph at the moment v
	// was contracted: every w outranks v, so these are the upward arcs the
	// forward query search relaxes. down[v] holds the arcs (w -> v) at the
	// same moment (Arc.to = w), relaxed by the backward search climbing
	// from the destination. Both are sorted by target ID.
	up   [][]chArc
	down [][]chArc

	shortcuts    int
	buildSeconds float64
}

// chArc is one arc of the hierarchy: target vertex, travel cost, and the
// contracted middle vertex for shortcuts (Invalid for original edges).
type chArc struct {
	to   VertexID
	mid  VertexID
	cost float64
}

// chWitnessSettleCap bounds each witness search. Truncation is
// conservative: an unfound witness adds a (possibly redundant) shortcut,
// which costs memory, never correctness. The cap is generous because
// spurious shortcuts densify the remaining graph and feed back into every
// later simulation — a tight cap makes large builds *slower*, not faster.
const chWitnessSettleCap = 1024

// CHStats describes a built hierarchy.
type CHStats struct {
	Vertices int
	// UpArcs/DownArcs count the arcs of the upward/downward search graphs;
	// every arc of the contracted graph appears in exactly one of the two.
	UpArcs   int
	DownArcs int
	// Shortcuts counts hierarchy arcs that are contractions (mid set)
	// rather than original road edges.
	Shortcuts    int
	BuildSeconds float64
	MemoryBytes  int64
}

// Stats returns construction statistics.
func (ch *CH) Stats() CHStats {
	st := CHStats{
		Vertices:     len(ch.rank),
		Shortcuts:    ch.shortcuts,
		BuildSeconds: ch.buildSeconds,
		MemoryBytes:  ch.MemoryBytes(),
	}
	for v := range ch.up {
		st.UpArcs += len(ch.up[v])
		st.DownArcs += len(ch.down[v])
	}
	return st
}

// MemoryBytes reports the heap footprint of the hierarchy's arc arrays
// and rank table.
func (ch *CH) MemoryBytes() int64 {
	var arcs int64
	for v := range ch.up {
		arcs += int64(len(ch.up[v]) + len(ch.down[v]))
	}
	const arcBytes = 16 // to(4) + mid(4) + cost(8)
	const sliceHeader = 24
	return arcs*arcBytes + int64(len(ch.rank))*(4+2*sliceHeader)
}

// Graph returns the graph the hierarchy was built over.
func (ch *CH) Graph() *Graph { return ch.g }

// chHeap is a value-type 4-ary min-heap keyed by (prio, v): float64
// distances for the witness and query searches, int64 priorities for the
// contraction queue. The explicit vertex tie-break keeps pop order — and
// with it contraction order, witness truncation and query meeting choices
// — deterministic even on graphs with exactly tied costs (unit-cost
// grids). Four children per node make the heap half as deep as a binary
// one, so a pop moves fewer items; the pop order is the (prio, v) order
// whatever the arity.
type chHeap[P int64 | float64] []chItem[P]

type chItem[P int64 | float64] struct {
	prio P
	v    VertexID
}

func (a chItem[P]) less(b chItem[P]) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.v < b.v
}

// init orders an arbitrary slice into a heap. Items are distinct under
// (prio, v), so the pop order does not depend on how the heap was built.
func (h *chHeap[P]) init() {
	q := *h
	*h = q[:0]
	for _, it := range q {
		h.push(it)
	}
}

func (h *chHeap[P]) push(it chItem[P]) {
	q := append(*h, it)
	*h = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !it.less(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
}

func (h *chHeap[P]) pop() chItem[P] {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	// Sift the last item down from the root: move the smallest child up
	// while it sorts before last.
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		m := c
		for k := c + 1; k < min(c+4, n); k++ {
			if q[k].less(q[m]) {
				m = k
			}
		}
		if !q[m].less(last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	if n > 0 {
		q[i] = last
	}
	return top
}

// chBuilder holds the mutable remaining graph during contraction. Arcs are
// kept in ID-sorted slices with at most one (minimum-cost) arc per ordered
// vertex pair, so every iteration order in the build is deterministic.
type chBuilder struct {
	g   *Graph
	n   int
	out [][]chArc // out[v] sorted by to; in[v].to is the arc's source
	in  [][]chArc

	rank    []int32
	next    int32
	delNbrs []int32 // contracted-neighbor count per vertex
	prio    []int64

	up        [][]chArc
	down      [][]chArc
	shortcuts int
}

// chShortcut is a pending shortcut discovered by simulating a contraction;
// the middle vertex is the vertex being contracted.
type chShortcut struct {
	from, to VertexID
	cost     float64
}

// chWS is the build's witness-search workspace: a dense distance array
// reset via the touched list, so repeated small searches stay
// allocation-free. want[w] is the cost of the shortcut a search still has
// to decide for target w, and -Inf for every other vertex. scs holds the
// shortcuts of the last simulated contraction.
type chWS struct {
	dist    []float64
	want    []float64
	touched []VertexID
	heap    chHeap[float64]
	scs     []chShortcut
}

func newChWS(n int) *chWS {
	ws := &chWS{dist: make([]float64, n), want: make([]float64, n)}
	for i := range ws.dist {
		ws.dist[i] = math.Inf(1)
		ws.want[i] = math.Inf(-1)
	}
	return ws
}

func (ws *chWS) reset() {
	for _, v := range ws.touched {
		ws.dist[v] = math.Inf(1)
	}
	ws.touched = ws.touched[:0]
	ws.heap = ws.heap[:0]
}

// BuildCH contracts g into a hierarchy on one goroutine and one witness
// workspace, allocating only the arcs it installs. Fanning the initial
// priorities over workers bought nothing: on a 2-vCPU Xeon host the serial
// build at -cpu 2 measured a 165 ms median against 170 ms for the fan-out
// on a 56x56 city (3 131 vertices), and 1.67 s against 1.72 s on a 120x120
// one (14 368 vertices), 10 alternated runs each. Build time grows faster
// than graph size, about 10x the time for 4.6x the vertices; the
// ~214k-vertex Chengdu-scale city takes about a minute
// (BenchmarkChengduCHRouting reports the measured build-s), a one-time
// cost amortised over every query the world ever answers.
func BuildCH(g *Graph) *CH {
	t0 := time.Now()
	n := g.NumVertices()
	b := newCHBuilder(g)

	ws := newChWS(n)
	for v := VertexID(0); int(v) < n; v++ {
		b.prio[v] = b.priority(v, len(b.simulate(v, ws)))
	}

	q := make(chHeap[int64], 0, n)
	for v := 0; v < n; v++ {
		q = append(q, chItem[int64]{prio: b.prio[v], v: VertexID(v)})
	}
	q.init()

	for len(q) > 0 {
		it := q.pop()
		v := it.v
		// Cheap reinsert: simulating never removes arcs, so the priority is
		// at least -degree + contracted-neighbors. When that bound already
		// loses the (priority, ID) order to the heap top, skip the witness
		// searches entirely — the pop order stays deterministic because the
		// bound is a pure function of the remaining graph.
		if lb := b.priority(v, 0); len(q) > 0 &&
			q[0].less(chItem[int64]{prio: lb, v: v}) {
			q.push(chItem[int64]{prio: lb, v: v})
			continue
		}
		// Lazy update: always re-simulate against the current remaining
		// graph. Witness searches exclude v, so a contraction anywhere can
		// invalidate an earlier simulation even when v's own adjacency is
		// untouched — the removed vertex may have carried the only
		// v-avoiding witness path. Stale queue priorities are harmless
		// (this recheck reinserts when v no longer wins the (priority, ID)
		// order), but stale shortcut lists would lose connectivity.
		scs := b.simulate(v, ws)
		b.prio[v] = b.priority(v, len(scs))
		upd := chItem[int64]{prio: b.prio[v], v: v}
		if len(q) > 0 && q[0].less(upd) {
			q.push(upd)
			continue
		}
		b.contract(v, scs)
	}

	ch := &CH{g: g, rank: b.rank, up: b.up, down: b.down, buildSeconds: time.Since(t0).Seconds()}
	for v := range ch.up {
		for _, a := range ch.up[v] {
			if a.mid != Invalid {
				ch.shortcuts++
			}
		}
		for _, a := range ch.down[v] {
			if a.mid != Invalid {
				ch.shortcuts++
			}
		}
	}
	return ch
}

// newCHBuilder starts a contraction of g: nothing contracted yet, the
// remaining graph is g with self-loops dropped and parallel arcs collapsed.
func newCHBuilder(g *Graph) *chBuilder {
	n := g.NumVertices()
	b := &chBuilder{
		g: g, n: n,
		out: make([][]chArc, n), in: make([][]chArc, n),
		rank: make([]int32, n), delNbrs: make([]int32, n),
		prio: make([]int64, n),
		up:   make([][]chArc, n), down: make([][]chArc, n),
	}
	for v := 0; v < n; v++ {
		b.out[v] = collapseArcs(g.Out(VertexID(v)), VertexID(v))
		b.in[v] = collapseArcs(g.In(VertexID(v)), VertexID(v))
	}
	return b
}

// collapseArcs turns a raw adjacency list into the builder's canonical
// form: self-loops dropped, parallel arcs collapsed to the cheapest, sorted
// by target ID.
func collapseArcs(arcs []Arc, self VertexID) []chArc {
	if len(arcs) == 0 {
		return nil
	}
	out := make([]chArc, 0, len(arcs))
	for _, a := range arcs {
		if a.To == self {
			continue
		}
		out = append(out, chArc{to: a.To, mid: Invalid, cost: a.Cost})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].to != out[j].to {
			return out[i].to < out[j].to
		}
		return out[i].cost < out[j].cost
	})
	// Keep the first (cheapest) arc per target.
	w := 0
	for i := range out {
		if w > 0 && out[w-1].to == out[i].to {
			continue
		}
		out[w] = out[i]
		w++
	}
	return out[:w]
}

// priority is the node-ordering heuristic: edge difference (shortcuts the
// contraction would add minus arcs it removes) plus the count of already
// contracted neighbors, all integers so the order is exact.
func (b *chBuilder) priority(v VertexID, shortcuts int) int64 {
	return int64(shortcuts) - int64(len(b.in[v])+len(b.out[v])) + int64(b.delNbrs[v])
}

// simulate computes the shortcuts contracting v would require right now:
// for every in-neighbor u a witness search (a cost-bounded Dijkstra in the
// remaining graph that avoids v) decides, per out-neighbor w, whether the
// path u->v->w is dispensable. The list is in (in-neighbor, out-neighbor)
// sorted order and lives in ws.scs, valid until ws simulates again.
func (b *chBuilder) simulate(v VertexID, ws *chWS) []chShortcut {
	ws.scs = ws.scs[:0]
	for i := range b.in[v] {
		b.simulateIn(v, i, ws)
	}
	return ws.scs
}

// simulateIn runs the witness search for the i-th in-neighbor of v, appends
// the shortcuts that neighbor needs to ws.scs in out-neighbor order, and
// returns them.
func (b *chBuilder) simulateIn(v VertexID, i int, ws *chWS) []chShortcut {
	u := b.in[v][i]
	outs := b.out[v]
	b.witness(ws, u.to, v, u.cost, outs)
	start := len(ws.scs)
	for _, w := range outs {
		if w.to == u.to {
			continue
		}
		sc := u.cost + w.cost
		if ws.dist[w.to] <= sc {
			continue // witness path at most as expensive: shortcut dispensable
		}
		ws.scs = append(ws.scs, chShortcut{from: u.to, to: w.to, cost: sc})
	}
	return ws.scs[start:]
}

// witness runs the Dijkstra from src (the in-neighbor, reached at uCost) in
// the remaining graph, skipping excluded, that decides the shortcut
// src->excluded->w for every out-neighbor target w != src, and returns the
// number of vertices it settled. Tentative labels left in ws.dist are upper
// bounds on real remaining-graph paths, so comparing them against a
// shortcut cost is always safe.
//
// A target is decided once its shortcut decision is final: when a label
// reaches dist[w] <= uCost+cost(excluded,w) (the shortcut is dispensable,
// and labels only shrink) or when w is settled (its distance is exact). The
// search stops once the popped key exceeds the live bound, the largest
// shortcut cost over the undecided targets: edge costs are non-negative, so
// no later label can come in under it. Labels above the live bound are
// never made. Below the stop point the settle order is that of a search
// run until every target is settled under the fixed budget of the largest
// shortcut cost, so the settle cap trips at the same settle it would there
// and every decision is the one that search makes.
func (b *chBuilder) witness(ws *chWS, src, excluded VertexID, uCost float64, outs []chArc) (settled int) {
	ws.reset()
	bound := math.Inf(-1)
	for _, a := range outs {
		if a.to != src {
			ws.want[a.to] = uCost + a.cost
			bound = max(bound, ws.want[a.to])
		}
	}
	// decide retires target w and, when it held the bound, lowers the bound
	// to the largest shortcut cost still undecided.
	decide := func(w VertexID) {
		held := ws.want[w] == bound
		ws.want[w] = math.Inf(-1)
		if held {
			bound = math.Inf(-1)
			for _, a := range outs {
				bound = max(bound, ws.want[a.to])
			}
		}
	}
	// excluded gets the label -Inf, which no relaxation can improve on, so
	// the search never enters it and the arc loop needs no test for it.
	ws.dist[src] = 0
	ws.dist[excluded] = math.Inf(-1)
	ws.touched = append(ws.touched, src, excluded)
	ws.heap.push(chItem[float64]{prio: 0, v: src})
	for len(ws.heap) > 0 {
		it := ws.heap.pop()
		if it.prio > bound {
			break
		}
		if it.prio > ws.dist[it.v] {
			continue
		}
		settled++
		if settled > chWitnessSettleCap {
			break
		}
		if ws.want[it.v] > math.Inf(-1) {
			decide(it.v)
		}
		for _, a := range b.out[it.v] {
			nd := it.prio + a.cost
			if nd <= bound && nd < ws.dist[a.to] {
				if math.IsInf(ws.dist[a.to], 1) {
					ws.touched = append(ws.touched, a.to)
				}
				ws.dist[a.to] = nd
				ws.heap.push(chItem[float64]{prio: nd, v: a.to})
				if nd <= ws.want[a.to] {
					decide(a.to)
				}
			}
		}
	}
	for _, a := range outs {
		ws.want[a.to] = math.Inf(-1)
	}
	return settled
}

// contract removes v from the remaining graph: snapshot its arcs as the
// upward/downward search arcs, splice it out of every neighbor's adjacency,
// and install the freshly simulated shortcuts.
func (b *chBuilder) contract(v VertexID, scs []chShortcut) {
	ins, outs := b.in[v], b.out[v]
	b.up[v] = append([]chArc(nil), outs...)
	b.down[v] = append([]chArc(nil), ins...)
	b.rank[v] = b.next
	b.next++

	// Neighbors = sorted union of in- and out-neighbor IDs; count each once.
	i, j := 0, 0
	for i < len(ins) || j < len(outs) {
		switch {
		case j >= len(outs) || (i < len(ins) && ins[i].to < outs[j].to):
			removeChArc(&b.out[ins[i].to], v)
			b.delNbrs[ins[i].to]++
			i++
		case i >= len(ins) || outs[j].to < ins[i].to:
			removeChArc(&b.in[outs[j].to], v)
			b.delNbrs[outs[j].to]++
			j++
		default: // both in- and out-neighbor
			removeChArc(&b.out[ins[i].to], v)
			removeChArc(&b.in[outs[j].to], v)
			b.delNbrs[ins[i].to]++
			i++
			j++
		}
	}
	for _, sc := range scs {
		b.upsertShortcut(sc, v)
	}
	b.out[v], b.in[v] = nil, nil
}

// upsertShortcut installs sc (middle vertex mid) into the remaining graph
// unless an arc at most as cheap already connects the pair. Out- and
// in-lists are updated together so they stay mirror images.
func (b *chBuilder) upsertShortcut(sc chShortcut, mid VertexID) {
	outList := &b.out[sc.from]
	k := findChArc(*outList, sc.to)
	if k >= 0 && (*outList)[k].cost <= sc.cost {
		return
	}
	arc := chArc{to: sc.to, mid: mid, cost: sc.cost}
	if k >= 0 {
		(*outList)[k] = arc
	} else {
		insertChArc(outList, arc)
	}
	inList := &b.in[sc.to]
	inArc := chArc{to: sc.from, mid: mid, cost: sc.cost}
	if k2 := findChArc(*inList, sc.from); k2 >= 0 {
		(*inList)[k2] = inArc
	} else {
		insertChArc(inList, inArc)
	}
}

// findChArc binary-searches an ID-sorted arc list, returning the index of
// the arc to `to` or -1.
func findChArc(list []chArc, to VertexID) int {
	lo, hi := 0, len(list)
	for lo < hi {
		m := (lo + hi) / 2
		if list[m].to < to {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(list) && list[lo].to == to {
		return lo
	}
	return -1
}

func insertChArc(list *[]chArc, a chArc) {
	l := *list
	lo, hi := 0, len(l)
	for lo < hi {
		m := (lo + hi) / 2
		if l[m].to < a.to {
			lo = m + 1
		} else {
			hi = m
		}
	}
	l = append(l, chArc{})
	copy(l[lo+1:], l[lo:])
	l[lo] = a
	*list = l
}

func removeChArc(list *[]chArc, to VertexID) {
	if k := findChArc(*list, to); k >= 0 {
		l := *list
		copy(l[k:], l[k+1:])
		*list = l[:len(l)-1]
	}
}

// chParent records how a query search reached a vertex: the predecessor on
// the hierarchy arc and the arc's middle vertex for unpacking.
type chParent struct {
	v   VertexID
	mid VertexID
}

// chSide is one direction's labels in a query workspace: dense arrays
// indexed by vertex. dist[v] and par[v] are live only while stamp[v] equals
// the workspace's generation, so starting a query is one increment, not an
// O(V) clear.
type chSide struct {
	dist  []float64
	par   []chParent
	stamp []uint32
	heap  chHeap[float64]
}

// chQueryWS is the scratch state of one point query. Workspaces are pooled:
// a warm query allocates nothing but the path it returns.
type chQueryWS struct {
	gen  uint32
	f, b chSide
	hops []VertexID // heads of the forward hops, meet first
	path []VertexID // the unpacked vertex path
}

// chQueryPool is shared by every hierarchy in the process, so begin sizes
// each workspace to the vertex count of the hierarchy about to use it.
var chQueryPool = sync.Pool{New: func() any { return new(chQueryWS) }}

// getCHQueryWS returns a pooled workspace ready for one query over a
// hierarchy of n vertices; hand it back with chQueryPool.Put.
func getCHQueryWS(n int) *chQueryWS {
	ws := chQueryPool.Get().(*chQueryWS)
	ws.begin(n)
	return ws
}

// begin kills every label left by earlier queries.
func (ws *chQueryWS) begin(n int) {
	if len(ws.f.stamp) < n { // new, or last used by a smaller hierarchy
		ws.f.resize(n)
		ws.b.resize(n)
		ws.gen = 0
	}
	ws.gen++
	if ws.gen == 0 { // wrapped: stamps from 2^32 queries ago would read as live
		clear(ws.f.stamp)
		clear(ws.b.stamp)
		ws.gen = 1
	}
	ws.f.heap, ws.b.heap = ws.f.heap[:0], ws.b.heap[:0]
}

func (s *chSide) resize(n int) {
	s.dist, s.par, s.stamp = make([]float64, n), make([]chParent, n), make([]uint32, n)
}

// label sets v's distance and parent for generation gen and queues it.
func (s *chSide) label(gen uint32, v VertexID, d float64, p chParent) {
	s.dist[v], s.par[v], s.stamp[v] = d, p, gen
	s.heap.push(chItem[float64]{prio: d, v: v})
}

// stalled is stall-on-demand: into holds v's arcs from higher-ranked
// vertices in this side's direction of travel (down[v] for the forward
// side, up[v] for the backward one). When some labelled w reaches v at
// dist[w]+cost strictly below d, v's own label d is not the distance
// from this side's root, so nothing relaxed from v can lie on a shortest
// path: the side settles v (it may still be the meet) but skips its arcs.
// The test is strict, so a label tied with the best one is never stalled.
func (s *chSide) stalled(gen uint32, d float64, into []chArc) bool {
	for _, a := range into {
		if s.stamp[a.to] == gen && s.dist[a.to]+a.cost < d {
			return true
		}
	}
	return false
}

// ShortestPath answers an exact point-to-point query: a bidirectional
// Dijkstra with stall-on-demand over the upward arcs from src and the
// (reversed) downward arcs from dst, followed by shortcut unpacking. It
// returns the exact cost (bit-identical to Graph.ShortestPath, see the type
// comment), the full vertex path, the number of settled search vertices
// (the instrument the Router observes), and ok=false when dst is
// unreachable.
func (ch *CH) ShortestPath(src, dst VertexID) (cost float64, path []VertexID, settled int, ok bool) {
	ws := getCHQueryWS(len(ch.rank))
	defer chQueryPool.Put(ws)
	if cost, settled, ok = ch.query(ws, src, dst); ok {
		path = append([]VertexID(nil), ws.path...)
	}
	return cost, path, settled, ok
}

// costSettled is ShortestPath without the path: the search and the exact
// fold both run in the pooled workspace, so it allocates nothing.
func (ch *CH) costSettled(src, dst VertexID) (cost float64, settled int) {
	ws := getCHQueryWS(len(ch.rank))
	defer chQueryPool.Put(ws)
	cost, settled, _ = ch.query(ws, src, dst)
	return cost, settled
}

// Cost returns the exact shortest-path cost, or +Inf when unreachable.
func (ch *CH) Cost(src, dst VertexID) float64 {
	cost, _ := ch.costSettled(src, dst)
	return cost
}

// query runs the search in ws and leaves the unpacked path in ws.path. The
// cost is +Inf when ok is false.
func (ch *CH) query(ws *chQueryWS, src, dst VertexID) (cost float64, settled int, ok bool) {
	ws.path = append(ws.path[:0], src)
	if src == dst {
		return 0, 0, true
	}
	gen, f, b := ws.gen, &ws.f, &ws.b
	f.label(gen, src, 0, chParent{})
	b.label(gen, dst, 0, chParent{})

	best := math.Inf(1)
	meet := Invalid

	// Each side runs until its own frontier can no longer improve best.
	for len(f.heap) > 0 || len(b.heap) > 0 {
		fOpen := len(f.heap) > 0 && f.heap[0].prio < best
		bOpen := len(b.heap) > 0 && b.heap[0].prio < best
		if !fOpen && !bOpen {
			break
		}
		// Alternate by smaller frontier key; forward wins exact ties so the
		// settle order is deterministic.
		s, other, arcs, into := b, f, ch.down, ch.up
		if fOpen && (!bOpen || f.heap[0].prio <= b.heap[0].prio) {
			s, other, arcs, into = f, b, ch.up, ch.down
		}
		it := s.heap.pop()
		if it.prio > s.dist[it.v] {
			continue
		}
		settled++
		if other.stamp[it.v] == gen {
			if total := it.prio + other.dist[it.v]; total < best || (total == best && it.v < meet) {
				best = total
				meet = it.v
			}
		}
		if s.stalled(gen, it.prio, into[it.v]) {
			continue
		}
		for _, a := range arcs[it.v] {
			if nd := it.prio + a.cost; s.stamp[a.to] != gen || nd < s.dist[a.to] {
				s.label(gen, a.to, nd, chParent{v: it.v, mid: a.mid})
			}
		}
	}
	if meet == Invalid {
		return math.Inf(1), settled, false
	}

	// Forward hierarchy hops src -> meet, found in reverse: f.par[x] =
	// (y, mid) means real arc y -> x.
	ws.hops = ws.hops[:0]
	for v := meet; v != src; v = f.par[v].v {
		ws.hops = append(ws.hops, v)
	}
	for i := len(ws.hops) - 1; i >= 0; i-- {
		v := ws.hops[i]
		ws.path = ch.appendUnpack(f.par[v].v, v, f.par[v].mid, ws.path)
	}
	// Backward hops meet -> dst: b.par[x] = (y, mid) means real arc x -> y.
	for v := meet; v != dst; {
		p := b.par[v]
		ws.path = ch.appendUnpack(v, p.v, p.mid, ws.path)
		v = p.v
	}
	// Exact cost: left fold of original edge costs in path order — the
	// association Dijkstra's dist[v] = dist[u] + cost accumulates.
	return pathFoldCost(ch.g, ws.path), settled, true
}

// pathFoldCost recomputes a path's cost as the left-to-right fold of
// original edge costs — the float association Dijkstra's relaxation
// produces, so the CH returns costs bit-identical to Graph.ShortestPath.
// Panics on a broken path: callers pass paths they just computed over g.
func pathFoldCost(g *Graph, path []VertexID) float64 {
	cost := 0.0
	for i := 1; i < len(path); i++ {
		c, ok := g.EdgeCost(path[i-1], path[i])
		if !ok {
			panic(fmt.Sprintf("roadnet: exact path uses a missing edge (%d,%d)", path[i-1], path[i]))
		}
		cost += c
	}
	return cost
}

// appendUnpack appends the real vertices of the hierarchy arc from->to
// (excluding from, including to). A shortcut recurses into its two halves,
// which were arcs of the remaining graph when mid was contracted and are
// therefore recorded in down[mid] (from->mid) and up[mid] (mid->to).
func (ch *CH) appendUnpack(from, to, mid VertexID, out []VertexID) []VertexID {
	if mid == Invalid {
		return append(out, to)
	}
	k := findChArc(ch.down[mid], from)
	if k < 0 {
		panic(fmt.Sprintf("roadnet: CH shortcut (%d,%d) lost its left half at %d", from, to, mid))
	}
	out = ch.appendUnpack(from, mid, ch.down[mid][k].mid, out)
	k = findChArc(ch.up[mid], to)
	if k < 0 {
		panic(fmt.Sprintf("roadnet: CH shortcut (%d,%d) lost its right half at %d", from, to, mid))
	}
	return ch.appendUnpack(mid, to, ch.up[mid][k].mid, out)
}
