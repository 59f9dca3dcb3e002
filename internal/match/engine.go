// Package match implements mT-Share's passenger–taxi matching (§IV-C of
// the paper): candidate taxi searching over the partition and mobility-
// cluster indexes (Eq. 2–3 plus the three refinement rules), taxi
// scheduling by exhaustive insertion (Alg. 1), partition filtering
// (Alg. 2), partition-restricted basic routing (Alg. 3), and probabilistic
// routing toward likely offline requests (Alg. 4).
package match

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/mobcluster"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/roadnet"
)

// Config carries the tunable parameters of the matching engine, with the
// paper's Table II defaults.
type Config struct {
	// SpeedMps is the constant taxi speed (paper: 15 km/h ≈ 4.17 m/s).
	SpeedMps float64
	// SearchRangeMeters caps the candidate search radius γ (paper default
	// 2.5 km ≈ 10 min of driving); the effective radius is
	// min(speed·slack, SearchRangeMeters) per Eq. 2.
	SearchRangeMeters float64
	// Lambda is the direction-similarity threshold λ (cos θ); paper
	// default cos 45° ≈ 0.707.
	Lambda float64
	// HorizonSeconds is the partition-index horizon T_mp (paper: 1 h).
	HorizonSeconds float64
	// RouterCacheTrees budgets the router's pair memo: the footprint of
	// this many single-source trees, 12 bytes per graph vertex each (the
	// unit the knob has always been in; no tree is built).
	RouterCacheTrees int

	// DisableLandmarkLB turns off the landmark distance oracle: no offset
	// precompute at engine construction and no lower-bound screening of
	// candidates before exact schedule evaluation. The zero value keeps
	// the oracle on. Screening is lossless (the bound is admissible, so a
	// pruned candidate could never have produced a feasible schedule);
	// the knob is the ablate-landmark A/B run's hook and no public surface
	// sets it.
	DisableLandmarkLB bool

	// CH, when set, attaches a prebuilt hierarchy over the partitioning's
	// graph instead of contracting it again — shared-world experiments and
	// benchmarks build one CH per graph. The hierarchy is the router's only
	// point-query back end, so NewEngine builds one when this is nil.
	// NewEngine stores the hierarchy it attached back into this field,
	// so Engine.Config() round-trips reuse it instead of rebuilding.
	CH *roadnet.CH

	// ProbMaxLegInflation additionally bounds each probabilistic leg to
	// this factor of its shortest-path cost — the probability-versus-
	// detour trade-off the paper defers to future work. 0 disables the
	// bound (legs are limited only by deadlines).
	ProbMaxLegInflation float64

	// BatchAssign switches DispatchBatch's retry rounds from greedy
	// deadline-order commits to a global min-cost assignment over the full
	// (request, taxi) cost graph: every feasible pairing is enumerated
	// through the ordinary pipeline (landmark screening included), a
	// deterministic Hungarian solve picks the maximum-cardinality minimum-
	// detour matching with (cost, request, taxi) tie-breaks, and a
	// remainder pass re-dispatches the leftovers greedily so ridesharing
	// absorption is never lost to the one-to-one matching. Degenerate
	// graphs (singleton batch, no contested taxi, no feasible pair) fall
	// back to the greedy order. The zero value keeps greedy rounds; see
	// the ablate-batch-assign experiment for the trade-off.
	BatchAssign bool

	// Oracle, when set (and DisableLandmarkLB is not), reuses a prebuilt
	// landmark distance oracle over the partitioning instead of running
	// the offset precompute again — shared-world experiments build one
	// oracle per partitioning. NewEngine stores the oracle it attached
	// back into this field (mirroring CH), so Config() round-trips reuse
	// it.
	Oracle *partition.Oracle

	// Metrics is the registry the engine (and its router and partition
	// index) register their instruments in, under mtshare_match_*,
	// mtshare_roadnet_*, and mtshare_index_*. nil gives the engine a
	// private registry, so independent engines never share counters;
	// pass a shared registry to aggregate (e.g. the server's).
	Metrics *obs.Registry

	// Tracer samples dispatch span trees. nil disables tracing; a tracer
	// carried by the DispatchContext context takes precedence.
	Tracer *obs.Tracer

	// RouterWrap, when set, interposes on the engine's shortest-path
	// router: every leg-cost and path query of the dispatch pipeline
	// goes through the returned PathRouter. The replay harness injects
	// deterministic router faults through it. Engine.Router still
	// returns the raw cache (stats, request preparation).
	RouterWrap func(roadnet.PathRouter) roadnet.PathRouter
}

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config {
	return Config{
		SpeedMps:          fleet.PaperSpeedMps,
		SearchRangeMeters: 2500,
		Lambda:            0.707,
		HorizonSeconds:    3600,
		RouterCacheTrees:  512,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.SpeedMps <= 0:
		return fmt.Errorf("match: SpeedMps must be positive, got %v", c.SpeedMps)
	case c.SearchRangeMeters <= 0:
		return fmt.Errorf("match: SearchRangeMeters must be positive, got %v", c.SearchRangeMeters)
	case c.Lambda < -1 || c.Lambda > 1:
		return fmt.Errorf("match: Lambda %v outside [-1,1]", c.Lambda)
	case c.HorizonSeconds <= 0:
		return fmt.Errorf("match: HorizonSeconds must be positive, got %v", c.HorizonSeconds)
	case c.ProbMaxLegInflation != 0 && c.ProbMaxLegInflation < 1:
		return fmt.Errorf("match: ProbMaxLegInflation %v below 1", c.ProbMaxLegInflation)
	}
	return nil
}

// Engine is mT-Share's dispatcher: it owns the index structures and
// answers Dispatch calls for incoming requests. The dispatch runtime
// feeds it taxi movement via ReindexTaxi and request lifecycle via
// OnRequestDone.
type Engine struct {
	cfg Config
	g   *roadnet.Graph
	pt  *partition.Partitioning
	spx *roadnet.SpatialIndex
	// disc memoises the candidate search's disc → partitions step under pt.
	disc *discMemo
	// rawRouter is the shortest-path cache; router is the query surface
	// the dispatch pipeline uses — the raw cache, or Config.RouterWrap's
	// interposition around it (fault injection under replay).
	rawRouter *roadnet.Router
	router    roadnet.PathRouter

	clusters *mobcluster.Clusters
	pindex   *index.PartitionIndex

	// oracle is the landmark lower-bound distance estimator screening
	// candidates before exact schedule evaluation; nil when
	// Config.DisableLandmarkLB is set.
	oracle *partition.Oracle

	// mu guards the taxi registry and serialises fleet-state access:
	// Dispatch evaluates candidates under the read lock while Commit
	// installs plans under the write lock, so concurrent dispatching,
	// committing, and reindexing never observe a half-written schedule.
	// closed (set by Drain, read under the same lock) bars any further
	// plan installation once shutdown has begun.
	mu     sync.RWMutex
	taxis  map[int64]*fleet.Taxi
	closed bool

	// meanEdge is the graph's mean edge cost, the scale of probabilistic
	// vertex weights, computed once on first use.
	meanEdgeOnce sync.Once
	meanEdge     float64

	// filterCache memoises the partition filter per (source partition,
	// target partition) pair — Alg. 2 depends only on the two landmarks.
	filterMu    sync.RWMutex
	filterCache map[uint64][]partition.ID

	// cruise drives demand-proportional cruise-target sampling.
	cruise *cruiseSampler

	reg    *obs.Registry
	tracer *obs.Tracer
	ins    instruments
}

// NewEngine builds an engine over a prepared partitioning and spatial
// index. The spatial index must cover the same graph as the partitioning.
func NewEngine(pt *partition.Partitioning, spx *roadnet.SpatialIndex, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g := pt.Graph()
	// The oracle's reverse trees grow beside the CH contraction, whose
	// loop is nearly serial and leaves a core idle; the two share no state.
	oracle := cfg.Oracle
	var oracleDone sync.WaitGroup
	if cfg.DisableLandmarkLB {
		oracle = nil
	} else if oracle == nil {
		oracleDone.Add(1)
		go func() {
			defer oracleDone.Done()
			oracle = partition.NewOracle(pt)
		}()
	}
	if cfg.CH == nil {
		cfg.CH = roadnet.BuildCH(g)
	}
	oracleDone.Wait()
	cfg.Oracle = oracle
	raw := roadnet.NewRouter(g, cfg.RouterCacheTrees).AttachCH(cfg.CH).InstrumentWith(reg)
	var router roadnet.PathRouter = raw
	if cfg.RouterWrap != nil {
		router = cfg.RouterWrap(raw)
	}
	e := &Engine{
		cfg:         cfg,
		g:           g,
		pt:          pt,
		spx:         spx,
		rawRouter:   raw,
		router:      router,
		clusters:    mobcluster.New(cfg.Lambda),
		pindex:      index.NewPartitionIndex(pt, cfg.HorizonSeconds).InstrumentWith(reg),
		taxis:       make(map[int64]*fleet.Taxi),
		filterCache: make(map[uint64][]partition.ID),
		cruise:      newCruiseSampler(1),
		reg:         reg,
		tracer:      cfg.Tracer,
		ins:         newInstruments(reg),
	}
	e.oracle = cfg.Oracle
	e.disc = newDiscMemo(pt)
	pt.IndexCells(spx)
	return e, nil
}

// cruiseSampler is the dispatch pipeline's only source of randomness: the
// demand-proportional cruise-target draw of CruisePlan.
type cruiseSampler struct {
	mu    sync.Mutex
	rng   *rand.Rand
	draws int64 // total values drawn, for snapshot fast-forward
}

func newCruiseSampler(seed int64) *cruiseSampler {
	return &cruiseSampler{rng: rand.New(rand.NewSource(seed))}
}

func (c *cruiseSampler) next() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draws++
	return c.rng.Float64()
}

func (c *cruiseSampler) drawCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draws
}

// fastForward discards draws until the stream has produced n values,
// restoring the sampler to a snapshot's position. math/rand's generator
// has no O(1) seek, but cruise draws are rare (one per idle-cruise plan),
// so replaying them is cheap. It fails if the sampler is already past n.
func (c *cruiseSampler) fastForward(n int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draws > n {
		return fmt.Errorf("match: cruise sampler at draw %d, cannot rewind to %d", c.draws, n)
	}
	for c.draws < n {
		c.rng.Float64()
		c.draws++
	}
	return nil
}

// ErrDispatcherClosed is returned by Commit and installPlan after Drain:
// a drained dispatcher refuses every further plan installation, so no
// assignment can land once shutdown's critical section has passed.
var ErrDispatcherClosed = errors.New("match: dispatcher closed")

// Drain closes the engine for plan installation. Taking the fleet write
// lock waits out every in-flight dispatch evaluation and commit, so when
// Drain returns nothing is mid-commit and nothing can commit later —
// System.Close and server.Stop rely on this barrier.
func (e *Engine) Drain() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}

// Metrics returns the registry holding the engine's instruments (and
// those of its router and partition index). Serve it via
// obs.Registry.WritePrometheus or read it via Snapshot.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// SpeedMps is the fleet speed the engine plans with; the runtime drives
// taxis at it.
func (e *Engine) SpeedMps() float64 { return e.cfg.SpeedMps }

// Partitioning returns the map partitioning the engine routes over.
func (e *Engine) Partitioning() *partition.Partitioning { return e.pt }

// Router exposes the shared shortest-path cache (used by the simulation
// for request preparation). It is the raw cache even when RouterWrap
// interposes a fault layer on the dispatch pipeline, so request
// preparation and cache statistics see the true network.
func (e *Engine) Router() *roadnet.Router { return e.rawRouter }

// AddTaxi registers a taxi and indexes it at its current position.
func (e *Engine) AddTaxi(t *fleet.Taxi, nowSeconds float64) {
	e.mu.Lock()
	e.taxis[t.ID] = t
	e.mu.Unlock()
	e.ReindexTaxi(t, nowSeconds)
}

// Taxi returns a registered taxi.
func (e *Engine) Taxi(id int64) (*fleet.Taxi, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.taxis[id]
	return t, ok
}

// ReindexTaxi refreshes the partition index and mobility cluster of a taxi
// after its plan or position changed (the paper updates indexes when
// requests are received or finished). The taxi is read under the fleet
// read lock so reindexing is safe against concurrent Commit calls.
func (e *Engine) ReindexTaxi(t *fleet.Taxi, nowSeconds float64) {
	e.mu.RLock()
	at := t.At()
	route := t.Route()
	v, hasVec := t.MobilityVector()
	e.pindex.Update(t.ID, at, route, nowSeconds, e.cfg.SpeedMps)
	e.mu.RUnlock()
	if hasVec {
		e.clusters.UpdateTaxi(t.ID, v)
	} else {
		e.clusters.RemoveTaxi(t.ID)
	}
}

// installPlan installs a plan on a taxi under the fleet write lock, so
// plan mutation stays serialised against concurrent dispatch evaluation.
// Events without legs get their basic legs here, from the next vertex
// SetPlan stitches the plan onto.
func (e *Engine) installPlan(t *fleet.Taxi, events []fleet.Event, legs [][]roadnet.VertexID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrDispatcherClosed
	}
	if legs == nil && len(events) > 0 {
		var ok bool
		if legs, ok = e.basicLegs(t, events); !ok {
			return fmt.Errorf("match: taxi %d: schedule unroutable", t.ID)
		}
	}
	return t.SetPlan(events, legs)
}

// noteCruisePlanned counts a committed idle-cruise plan for the taxi.
func (e *Engine) noteCruisePlanned(t *fleet.Taxi) { e.ins.cruisePlans.Inc() }

// OnRequestAssigned records a request's cluster membership.
func (e *Engine) OnRequestAssigned(req *fleet.Request) {
	e.clusters.AddRequest(int64(req.ID), req.MobilityVector())
}

// OnRequestDone removes a completed (or expired) request from the
// mobility clusters.
func (e *Engine) OnRequestDone(req *fleet.Request) {
	e.clusters.RemoveRequest(int64(req.ID))
}

// searchRadius returns the candidate search radius γ. Eq. 2 derives γ as
// speed × waiting-time slack; the evaluation (§V-A4) fixes γ = 2.5 km
// (≈ 10 min of driving) and sweeps it in Fig. 15, so the configured range
// governs, and a request whose slack has already run out searches nothing.
// Occupied candidate taxis need not be inside the disc *now* to make the
// pickup — the schedule feasibility check re-validates timing — so
// shrinking the disc below the configured γ only loses candidates.
//
// Deadline-boundary convention (shared with fleet.EvaluateSchedule): a
// deadline is the last *feasible* instant — arrival exactly at the
// deadline serves the request; only a strictly past deadline expires it.
// A taxi already at the origin can thus still pick up at
// pickupDeadline == now, so the comparison here is strict.
func (e *Engine) searchRadius(req *fleet.Request, nowSeconds float64) float64 {
	if req.PickupDeadline(e.cfg.SpeedMps).Seconds() < nowSeconds {
		return 0
	}
	return e.cfg.SearchRangeMeters
}

// discMemo holds, per origin vertex, the partitions intersecting the search
// disc around it under one partitioning. The disc walk is a pure function of
// the partitioning, the spatial index, the vertex's point and γ, and all four
// are fixed for the memo's lifetime, so a parked request re-searched every
// round walks its disc once. Slots fill lazily: only vertices that originate
// a request ever hold a list.
type discMemo struct {
	pt    *partition.Partitioning
	near  []atomic.Pointer[[]partition.ID] // by origin vertex; nil until first searched
	bytes atomic.Int64                     // heap held by the filled lists
}

func newDiscMemo(pt *partition.Partitioning) *discMemo {
	return &discMemo{pt: pt, near: make([]atomic.Pointer[[]partition.ID], pt.Graph().NumVertices())}
}

// memoryBytes is the memo's footprint: one pointer per vertex plus every
// filled list with its slice header.
func (d *discMemo) memoryBytes() int64 { return int64(len(d.near))*8 + d.bytes.Load() }

// discPartitions returns the partitions intersecting the search disc of req
// under d's partitioning, in PartitionsNear's order. The result is shared
// and must not be modified. A request whose origin point is not its origin
// vertex's point, or a radius other than γ, walks the disc afresh.
func (e *Engine) discPartitions(d *discMemo, ws *candWS, req *fleet.Request, radius float64) []partition.ID {
	if req.OriginPt != e.g.Point(req.Origin) || radius != e.cfg.SearchRangeMeters {
		ws.parts = d.pt.AppendPartitionsNear(ws.parts[:0], e.spx, req.OriginPt, radius)
		return ws.parts
	}
	slot := &d.near[req.Origin]
	if p := slot.Load(); p != nil {
		return *p
	}
	ws.parts = d.pt.AppendPartitionsNear(ws.parts[:0], e.spx, req.OriginPt, radius)
	parts := slices.Clone(ws.parts)
	// A racing first search from the same vertex may store first; its list
	// equals this one, so either may be returned.
	if slot.CompareAndSwap(nil, &parts) {
		d.bytes.Add(24 + 4*int64(len(parts)))
	}
	return parts
}

// idSet is a generation-stamped open-addressing set of taxi IDs: a slot is
// live when its stamp equals gen, so emptying the set is one increment.
type idSet struct {
	gen   uint32
	stamp []uint32
	keys  []int64
	shift uint // 64 - log2(len(keys))
}

// begin empties the set and sizes it to hold n keys at most half full.
func (s *idSet) begin(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if len(s.keys) < size || s.gen == math.MaxUint32 { // about to wrap: stamps from 2^32 searches ago would read as live
		s.stamp, s.keys, s.gen = make([]uint32, size), make([]int64, size), 0
		s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	}
	s.gen++
}

// home is id's first probe slot (Fibonacci hashing).
func (s *idSet) home(id int64) int { return int((uint64(id) * 0x9e3779b97f4a7c15) >> s.shift) }

// distinct compacts ids in place to the first occurrence of each ID.
func (s *idSet) distinct(ids []int64) []int64 {
	s.begin(len(ids))
	mask := len(s.keys) - 1
	out := ids[:0]
	for _, id := range ids {
		for i := s.home(id); ; i = (i + 1) & mask {
			if s.stamp[i] != s.gen {
				s.stamp[i], s.keys[i] = s.gen, id
				out = append(out, id)
				break
			}
			if s.keys[i] == id {
				break
			}
		}
	}
	return out
}

// candWS is the scratch state of one candidate search. Workspaces are
// pooled, so a search allocates only the slice it returns.
type candWS struct {
	parts  []partition.ID // partitions intersecting an unmemoised search disc
	ids    []int64        // taxis listed in the disc's partitions
	seen   idSet          // dedupes ids
	reach  []int64        // taxis recorded to arrive in the request's partition by the deadline
	compat []mobcluster.ClusterID
	keep   []*fleet.Taxi // the survivors, ascending by ID
}

var candPool = sync.Pool{New: func() any { return new(candWS) }}

// CandidateTaxis implements candidate taxi searching (§IV-C1): the union
// of the partition taxi lists intersecting the search disc, intersected
// with the direction-compatible mobility clusters' taxi lists, extended
// with empty taxis in the disc's partitions, minus taxis without spare seats
// and taxis that cannot reach the request's partition by the pickup
// deadline. The result is in ascending taxi-ID order.
func (e *Engine) CandidateTaxis(req *fleet.Request, nowSeconds float64) []*fleet.Taxi {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.candidatesLocked(req, nowSeconds)
}

// candidatesLocked is CandidateTaxis under the caller's fleet read lock.
func (e *Engine) candidatesLocked(req *fleet.Request, nowSeconds float64) []*fleet.Taxi {
	radius := e.searchRadius(req, nowSeconds)
	if radius <= 0 {
		return nil
	}
	ws := candPool.Get().(*candWS)
	defer func() {
		clear(ws.keep) // a pooled workspace must not keep a fleet alive
		candPool.Put(ws)
	}()
	d := e.disc
	parts := e.discPartitions(d, ws, req, radius)
	deadline := req.PickupDeadline(e.cfg.SpeedMps).Seconds()
	ws.ids, ws.reach = e.pindex.Search(parts, d.pt.PartitionOf(req.Origin), deadline, ws.ids[:0], ws.reach[:0])
	// A taxi whose route crosses several of the disc's partitions is listed
	// once per list: drop the repeats, then sort only the distinct IDs.
	ws.ids = ws.seen.distinct(ws.ids)
	slices.Sort(ws.ids)
	slices.Sort(ws.reach)
	ws.compat = e.clusters.CompatibleClusters(ws.compat[:0], req.MobilityVector())
	ws.keep = ws.keep[:0]
	for _, id := range ws.ids {
		t, ok := e.taxis[id]
		if !ok {
			continue
		}
		// Rule 1: empty taxis in the disc partitions are always included.
		// Occupied taxis must share the request's travel direction: Eq. 3's
		// intersection with the compatible clusters' taxi lists, taken as a
		// compare of the taxi's own cluster.
		if !t.Empty() {
			if c, ok := e.clusters.TaxiCluster(t.ID); !ok || !slices.Contains(ws.compat, c) {
				e.ins.prunedByDirection.Inc()
				continue
			}
		}
		// Rule 2: spare seats.
		if t.IdleSeats() < req.Passengers {
			e.ins.prunedByCapacity.Inc()
			continue
		}
		// Rule 3: reachability of the request's partition by the pickup
		// deadline. A taxi whose recorded (planned-route) arrival makes
		// the deadline — one in ws.reach — certainly qualifies; one whose
		// planned arrival is late may still divert, so it is kept unless
		// even the straight-line lower bound rules it out.
		if _, listed := slices.BinarySearch(ws.reach, t.ID); !listed {
			lb := nowSeconds + geo.Equirect(t.Point(), req.OriginPt)/e.cfg.SpeedMps
			if lb > deadline {
				e.ins.prunedByReachability.Inc()
				continue
			}
		}
		ws.keep = append(ws.keep, t)
	}
	return append([]*fleet.Taxi(nil), ws.keep...) // nil when nothing survived
}

// IndexMemoryBytes reports the memory footprint of the engine's index
// structures (Table IV), the disc memo of the candidate search included.
func (e *Engine) IndexMemoryBytes() int64 {
	return e.pindex.Stats().MemoryBytes + e.clusters.Stats().MemoryBytes + e.pt.MemoryBytes() + e.DiscMemoBytes()
}

// DiscMemoBytes is the disc memo's share of IndexMemoryBytes. It depends on
// which origins this process has searched from, so a process recovered from
// its log holds the same state with a different memo.
func (e *Engine) DiscMemoBytes() int64 { return e.disc.memoryBytes() }

// ClusterStats exposes mobility-clustering statistics.
func (e *Engine) ClusterStats() mobcluster.Stats { return e.clusters.Stats() }
