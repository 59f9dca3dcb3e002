package roadnet

import (
	"math"
	"sync"

	"repro/internal/obs"
)

// Router answers exact shortest-path cost and path queries over a fixed
// graph. The paper assumes O(1) lookups in a precomputed all-pairs table
// (§V-A4); that table is quadratic, so the Router stands in for it with one
// thing: a bounded memo (u,v) -> cost in front of an exact point query on
// the attached contraction hierarchy. Path always runs the point query and
// returns its unpacked path. A Router answers nothing until AttachCH.
//
// It routes by pair, not by source tree, because a dispatch asks for few
// distinct targets per source and asks for them repeatedly: a counting probe
// on the repo benchmark's steady workload reads 15.2 router calls per
// dispatch that are 8.4 distinct pairs from 6.2 distinct sources (1.3-1.5
// targets per source). A full SSSP tree over its 3 131 vertices costs 12.7
// CH point queries (319 us against 25 us) and, once built, served a median
// of 3 later lookups; the repeats it did serve are the same pair again
// (direct cost, then the scheduler; every insertion candidate re-walking the
// taxi's first leg), which the memo answers in ~0.1 us. A "tree on the k-th
// distinct target" sweep was monotone in k (2nd 1.88-2.01 ms dispatch p50,
// 4th 1.62-1.70, 8th 1.47, never 1.27-1.31), so no tree is ever built on
// the serving path; EXPERIMENTS.md "Route by pair" has the tables.
//
// The CH returns the left fold of the found path's original edge costs
// (see its exactness contract), so whether the memo held the pair and when
// an entry was evicted are invisible to dispatch outcomes.
//
// Router is safe for concurrent use. Concurrent misses on one pair each run
// the point query and store the same value. Its counts live only in its
// instruments.
type Router struct {
	g   *Graph
	ch  *CH // set by AttachCH before any query or concurrent use
	met routerMetrics

	mu sync.Mutex
	// The memo is two generations of at most genCap entries each: a lookup
	// tries cur then old (promoting an old hit into cur), and a full cur
	// becomes old while the previous old is cleared for reuse. Pairs in use
	// survive a rotation; the footprint never exceeds 2*genCap entries; and
	// after both maps have filled once, rotation allocates nothing.
	cur, old map[uint64]float64
	genCap   int
}

// memoEntryBytes is what one memo entry is charged against the budget: an
// upper bound on a map[uint64]float64 slot (8-slot groups of 16-byte
// key/value pairs plus control bytes, at the load factor just after a
// doubling), so the budget bounds real memory, not just payload.
const memoEntryBytes = 48

// routerMetrics are the router's instruments under the mtshare_roadnet_*
// namespace, so routing shows up on the one metrics surface next to the
// dispatch-stage histograms. Stats reads its counts from them.
type routerMetrics struct {
	hits        *obs.Counter
	cold        *obs.Counter
	chQueries   *obs.Counter
	chSettled   *obs.Histogram
	memoryBytes *obs.Gauge
	chBuildSecs *obs.Gauge
	chShortcuts *obs.Gauge
	chMemory    *obs.Gauge
}

// InstrumentWith moves the router's instruments into reg —
// mtshare_roadnet_cache_hits_total (memo hits), ..._cold_queries_total
// (point queries run), ..._ch_queries_total (the same count, by its
// backend's name), ..._ch_settled_vertices,
// ..._cache_memory_bytes (memo footprint), and the
// mtshare_roadnet_ch_{build_seconds,shortcuts,memory_bytes} gauges — and
// returns the router. Until then they live in a private registry. Call it
// once, before the router is queried.
func (r *Router) InstrumentWith(reg *obs.Registry) *Router {
	r.met = routerMetrics{
		hits:      reg.Counter("mtshare_roadnet_cache_hits_total"),
		cold:      reg.Counter("mtshare_roadnet_cold_queries_total"),
		chQueries: reg.Counter("mtshare_roadnet_ch_queries_total"),
		// Vertex counts, not latencies: the default bucket ladder tops
		// out at 10 and would funnel every observation into +Inf.
		chSettled: reg.HistogramWith("mtshare_roadnet_ch_settled_vertices",
			[]float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}),
		memoryBytes: reg.Gauge("mtshare_roadnet_cache_memory_bytes"),
		chBuildSecs: reg.Gauge("mtshare_roadnet_ch_build_seconds"),
		chShortcuts: reg.Gauge("mtshare_roadnet_ch_shortcuts"),
		chMemory:    reg.Gauge("mtshare_roadnet_ch_memory_bytes"),
	}
	r.publishCHGauges()
	return r
}

// AttachCH points the router's point queries at a prebuilt contraction
// hierarchy (which must be over the router's graph) and publishes the
// mtshare_roadnet_ch_* gauges. Call it once, before the router is queried
// or used concurrently.
func (r *Router) AttachCH(ch *CH) *Router {
	if ch == nil {
		panic("roadnet: AttachCH: nil hierarchy")
	}
	if ch.Graph() != r.g {
		panic("roadnet: AttachCH: hierarchy built over a different graph")
	}
	r.ch = ch
	r.publishCHGauges()
	return r
}

// CH returns the attached hierarchy, or nil before AttachCH.
func (r *Router) CH() *CH { return r.ch }

func (r *Router) publishCHGauges() {
	if r.ch == nil {
		return
	}
	st := r.ch.Stats()
	r.met.chBuildSecs.Set(st.BuildSeconds)
	r.met.chShortcuts.Set(float64(st.Shortcuts))
	r.met.chMemory.Set(float64(st.MemoryBytes))
}

// PathRouter is the query surface consumers of shortest paths depend
// on. *Router is the canonical implementation; wrappers (the replay
// harness's fault-injection layer) interpose on it to perturb answers
// deterministically without touching the memo underneath.
type PathRouter interface {
	// Cost returns the shortest-path cost in meters from u to v, or
	// +Inf when v is unreachable from u.
	Cost(u, v VertexID) float64
	// Path returns the shortest path from u to v inclusive of both
	// endpoints, or nil when unreachable.
	Path(u, v VertexID) []VertexID
	// Reachable reports whether v is reachable from u.
	Reachable(u, v VertexID) bool
}

var _ PathRouter = (*Router)(nil)

// NewRouter creates a Router over g whose memo may grow to the footprint of
// capacity single-source trees, capacity * 12 bytes * |V| (what the
// parameter has always budgeted). capacity < 1 is treated as 1.
func NewRouter(g *Graph, capacity int) *Router {
	if capacity < 1 {
		capacity = 1
	}
	genCap := capacity * 12 * g.NumVertices() / memoEntryBytes / 2
	if genCap < 1 {
		genCap = 1
	}
	r := &Router{
		g:      g,
		cur:    make(map[uint64]float64),
		old:    make(map[uint64]float64),
		genCap: genCap,
	}
	return r.InstrumentWith(obs.NewRegistry())
}

// Graph returns the underlying graph.
func (r *Router) Graph() *Graph { return r.g }

func pairKey(u, v VertexID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// lookup returns the memoised cost of key and counts the hit.
func (r *Router) lookup(key uint64) (float64, bool) {
	r.mu.Lock()
	c, ok := r.cur[key]
	if !ok {
		if c, ok = r.old[key]; ok {
			r.storeLocked(key, c)
		}
	}
	r.mu.Unlock()
	if ok {
		r.met.hits.Inc()
	}
	return c, ok
}

// storeLocked records key in the current generation, rotating first when it
// is full (caller holds r.mu).
func (r *Router) storeLocked(key uint64, cost float64) {
	if len(r.cur) >= r.genCap {
		r.cur, r.old = r.old, r.cur
		clear(r.cur)
	}
	r.cur[key] = cost
	r.met.memoryBytes.Set(float64(r.memoBytesLocked()))
}

func (r *Router) memoBytesLocked() int64 {
	return int64(len(r.cur)+len(r.old)) * memoEntryBytes
}

// pointQuery runs one exact point-to-point search on the attached CH, which
// folds the found path's original edge costs left to right, so the cost is
// bit-identical to Graph.SSSP's Dist. Returns +Inf cost and a nil path when
// dst is unreachable. wantPath=false lets the CH fold over its pooled path
// buffer and return nil instead of allocating.
func (r *Router) pointQuery(src, dst VertexID, wantPath bool) (cost float64, path []VertexID) {
	ch := r.ch
	if ch == nil {
		panic("roadnet: Router queried before AttachCH")
	}
	var settled int
	if wantPath {
		cost, path, settled, _ = ch.ShortestPath(src, dst)
	} else {
		cost, settled = ch.costSettled(src, dst)
	}
	r.met.cold.Inc()
	r.met.chQueries.Inc()
	r.met.chSettled.Observe(float64(settled))
	return cost, path
}

// Cost returns the shortest-path cost in meters from u to v, or +Inf when v
// is unreachable from u.
func (r *Router) Cost(u, v VertexID) float64 {
	if u == v {
		return 0
	}
	key := pairKey(u, v)
	if c, ok := r.lookup(key); ok {
		return c
	}
	cost, _ := r.pointQuery(u, v, false)
	r.mu.Lock()
	r.storeLocked(key, cost)
	r.mu.Unlock()
	return cost
}

// Path returns the shortest path from u to v inclusive of both endpoints,
// or nil when unreachable.
func (r *Router) Path(u, v VertexID) []VertexID {
	if u == v {
		return []VertexID{u}
	}
	_, path := r.pointQuery(u, v, true)
	return path
}

// Reachable reports whether v is reachable from u.
func (r *Router) Reachable(u, v VertexID) bool {
	return !math.IsInf(r.Cost(u, v), 1)
}

// RouterStats is a snapshot of the router's counters.
type RouterStats struct {
	// Hits counts Cost calls answered from the memo.
	Hits int64
	// CHQueries counts the point queries run (Cost misses and every Path).
	CHQueries int64
	// MemoEntries is the number of memoised pairs held (both generations);
	// MemoBytes charges each at memoEntryBytes and never exceeds the
	// budget NewRouter was given.
	MemoEntries int
	MemoBytes   int64
	// CHMemoryBytes is the attached hierarchy's arc-array footprint (0
	// without a CH); it is reported apart from MemoBytes because the
	// hierarchy is immutable and never evicted.
	CHMemoryBytes int64
}

// Stats returns a snapshot of the router's statistics.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	st := RouterStats{
		Hits:        r.met.hits.Value(),
		CHQueries:   r.met.chQueries.Value(),
		MemoEntries: len(r.cur) + len(r.old),
		MemoBytes:   r.memoBytesLocked(),
	}
	r.mu.Unlock()
	if r.ch != nil {
		st.CHMemoryBytes = r.ch.MemoryBytes()
	}
	return st
}
