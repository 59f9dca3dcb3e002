package match

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/mobcluster"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/roadnet"
)

// Border policies of a sharded dispatcher. BorderTwoPhase (the default)
// resolves candidates near shard borders through the deterministic
// two-phase reserve/commit protocol: the reserve phase freezes every
// shard's fleet state and evaluates the cross-shard candidate union, the
// commit phase routes the winner to its owning shard, where SetPlan
// re-validation rejects stale reservations. Runs are bit-identical to the
// single-engine build. BorderLocal restricts each request to its home
// shard's own taxis — no cross-shard traffic, but border candidates are
// lost, so outcomes may differ from the single engine; it exists as the
// cheap policy the two-phase protocol is measured against.
const (
	BorderTwoPhase = "twophase"
	BorderLocal    = "local"
)

// ShardingConfig selects the dispatcher topology. The zero value — and
// any Shards <= 1 — is the classic single engine.
type ShardingConfig struct {
	// Shards is the number of independent match engines. Each owns a
	// contiguous range of map partitions (balanced by vertex count) with
	// its own fleet registry, partition index, and router cache.
	Shards int
	// BorderPolicy is BorderTwoPhase or BorderLocal; empty means
	// BorderTwoPhase.
	BorderPolicy string
}

// Enabled reports whether the configuration asks for a sharded dispatcher.
func (c ShardingConfig) Enabled() bool { return c.Shards > 1 }

// Policy returns the effective border policy.
func (c ShardingConfig) Policy() string {
	if c.BorderPolicy == "" {
		return BorderTwoPhase
	}
	return c.BorderPolicy
}

// Validate reports whether the configuration is usable.
func (c ShardingConfig) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("match: Sharding.Shards %d negative", c.Shards)
	}
	switch c.BorderPolicy {
	case "", BorderTwoPhase, BorderLocal:
		return nil
	default:
		return fmt.Errorf("match: Sharding.BorderPolicy %q (want %q or %q)", c.BorderPolicy, BorderTwoPhase, BorderLocal)
	}
}

// cruiseSampler is the dispatch pipeline's only source of randomness: the
// demand-proportional cruise-target draw of CruisePlan. It is a pointer
// shared by every shard of a sharded dispatcher — idle-cruise planning
// walks taxis in ID order in every driver, so one shared stream
// reproduces the single-engine draw sequence exactly regardless of which
// shard plans each cruise.
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

// Dispatcher is the matching-engine surface the facade, simulator, server,
// and experiment harness program against: everything an Engine does, plus
// the shard-introspection calls a ShardedEngine adds. The two unexported
// methods keep implementations inside this package — plan installation
// must go through the owning engine's fleet lock.
type Dispatcher interface {
	AddTaxi(t *fleet.Taxi, nowSeconds float64)
	Taxi(id int64) (*fleet.Taxi, bool)
	NumTaxis() int
	ReindexTaxi(t *fleet.Taxi, nowSeconds float64)
	Dispatch(req *fleet.Request, nowSeconds float64, probabilistic bool) (Assignment, bool)
	DispatchContext(ctx context.Context, req *fleet.Request, nowSeconds float64, probabilistic bool) (Assignment, bool)
	DispatchBatch(ctx context.Context, reqs []*fleet.Request, nowSeconds float64, probabilistic bool) []BatchOutcome
	Commit(a Assignment, nowSeconds float64) error
	TryServeOffline(t *fleet.Taxi, req *fleet.Request, nowSeconds float64) bool
	OnRequestAssigned(req *fleet.Request)
	OnRequestDone(req *fleet.Request)
	CruisePlan(t *fleet.Taxi, maxMeters float64) ([]roadnet.VertexID, bool)
	Partitioning() *partition.Partitioning
	Router() *roadnet.Router
	Config() Config
	Metrics() *obs.Registry
	IndexMemoryBytes() int64
	ClusterStats() mobcluster.Stats
	Stats() EngineStats
	ShardStats() []ShardStats
	ShardCount() int
	LandmarkOracle() *partition.Oracle
	NewPendingPool(capacity int) Pool
	CaptureDurable() *DurableState
	RestoreDurable(st *DurableState, resolve RequestResolver) ([]*fleet.Taxi, error)
	Drain()

	installPlan(t *fleet.Taxi, events []fleet.Event, legs [][]roadnet.VertexID) error
	noteCruisePlanned(t *fleet.Taxi)
}

// ShardCount returns 1: an Engine is always a single shard.
func (e *Engine) ShardCount() int { return 1 }

// NewDispatcher builds the dispatcher cfg.Sharding selects: the classic
// single Engine for Shards <= 1, a ShardedEngine otherwise.
func NewDispatcher(pt *partition.Partitioning, spx *roadnet.SpatialIndex, cfg Config) (Dispatcher, error) {
	if cfg.Sharding.Enabled() {
		return NewShardedEngine(pt, spx, cfg)
	}
	return NewEngine(pt, spx, cfg)
}

// shardInstruments are the sharding-layer counters of one shard,
// registered per shard under the shard="i" label.
type shardInstruments struct {
	// requests counts dispatches routed to the shard as home shard.
	requests *obs.Counter
	// crossCandidates counts evaluated candidates owned by another shard,
	// crossAssignments commits whose winning taxi another shard owned, and
	// borderConflicts batch conflicts whose contested taxi was cross-shard.
	crossCandidates  *obs.Counter
	crossAssignments *obs.Counter
	borderConflicts  *obs.Counter
	// handoffs counts taxis migrated into the shard's territory.
	handoffs *obs.Counter
	taxis    *obs.Gauge
}

func newShardInstruments(reg *obs.Registry) shardInstruments {
	return shardInstruments{
		requests:         reg.Counter("mtshare_shard_requests_total"),
		crossCandidates:  reg.Counter("mtshare_shard_cross_candidates_total"),
		crossAssignments: reg.Counter("mtshare_shard_cross_assignments_total"),
		borderConflicts:  reg.Counter("mtshare_shard_border_conflicts_total"),
		handoffs:         reg.Counter("mtshare_shard_handoffs_total"),
		taxis:            reg.Gauge("mtshare_shard_taxis"),
	}
}

// ShardedEngine partitions the dispatcher into N independent match
// engines, each owning a contiguous range of map partitions (a ShardMap
// territory) with its own fleet registry, partition index, and router
// cache. Requests route to the shard owning their pickup partition (the
// home shard); border candidates resolve through the two-phase
// reserve/commit protocol (see BorderTwoPhase), whose deterministic
// (detour, taxiID) winner order makes a sharded run bit-identical to the
// single-engine build at every shard count and parallelism level — the
// ablate-shard experiment gates on exactly that.
//
// Mutable structures that are history-dependent stay shared across
// shards: the mobility clusters (centroids depend on the full
// request/taxi arrival history) and the cruise sampler (one rng stream).
// Immutable expensive structures — the contraction hierarchy and the
// landmark oracle — are built once and handed to every shard.
type ShardedEngine struct {
	cfg  Config
	pt   *partition.Partitioning
	spx  *roadnet.SpatialIndex
	smap *partition.ShardMap

	shards []*Engine
	ins    []shardInstruments
	reg    *obs.Registry

	// mu guards owner: taxi ID -> shard currently holding the taxi's
	// registry entry and partition-index row (the shard owning the taxi's
	// position). Lock order: shard fleet locks first, then mu — never
	// acquire a shard lock while holding mu.
	mu    sync.RWMutex
	owner map[int64]int
}

// NewShardedEngine builds a sharded dispatcher over a prepared
// partitioning and spatial index. cfg.Sharding.Shards engines are built;
// the CH and landmark oracle are constructed once (unless prebuilt ones
// are supplied) and shared. Per-shard instruments land in cfg.Metrics
// (or a fresh registry) under shard="i" labels.
func NewShardedEngine(pt *partition.Partitioning, spx *roadnet.SpatialIndex, cfg Config) (*ShardedEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sharding.Shards
	if n < 1 {
		n = 1
	}
	smap, err := partition.NewShardMap(pt, n)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg.Metrics = reg
	// Shared structures, built once.
	if !cfg.DisableCH && cfg.CH == nil {
		cfg.CH = roadnet.BuildCH(pt.Graph(), cfg.parallelism())
	}
	if cfg.DisableLandmarkLB {
		cfg.Oracle = nil
	} else if cfg.Oracle == nil {
		cfg.Oracle = partition.NewOracle(pt, cfg.parallelism())
	}
	clusters := mobcluster.New(cfg.Lambda)
	cruise := newCruiseSampler(1)

	se := &ShardedEngine{
		cfg:    cfg,
		pt:     pt,
		spx:    spx,
		smap:   smap,
		shards: make([]*Engine, n),
		ins:    make([]shardInstruments, n),
		reg:    reg,
		owner:  make(map[int64]int),
	}
	for i := 0; i < n; i++ {
		scfg := cfg
		scfg.Sharding = ShardingConfig{} // each shard is a plain engine
		scfg.Metrics = reg.Labeled("shard=" + strconv.Quote(strconv.Itoa(i)))
		sh, err := NewEngine(pt, spx, scfg)
		if err != nil {
			return nil, err
		}
		sh.clusters = clusters
		sh.cruise = cruise
		se.shards[i] = sh
		se.ins[i] = newShardInstruments(scfg.Metrics)
	}
	return se, nil
}

// ShardCount returns the number of shards.
func (se *ShardedEngine) ShardCount() int { return len(se.shards) }

// ShardMap exposes the partition-to-shard ownership map.
func (se *ShardedEngine) ShardMap() *partition.ShardMap { return se.smap }

// HomeShard returns the shard owning the request's pickup partition — a
// total, deterministic function of the pickup location, independent of
// any fleet or queue state.
func (se *ShardedEngine) HomeShard(req *fleet.Request) int {
	return se.smap.ShardOf(se.pt.PartitionOf(req.Origin))
}

// Partitioning returns the shared map partitioning.
func (se *ShardedEngine) Partitioning() *partition.Partitioning { return se.pt }

// Config returns the dispatcher configuration (with the shared CH and
// oracle stored back, mirroring Engine.Config).
func (se *ShardedEngine) Config() Config { return se.cfg }

// Metrics returns the parent registry aggregating every shard's labelled
// instruments.
func (se *ShardedEngine) Metrics() *obs.Registry { return se.reg }

// Router exposes shard 0's raw shortest-path cache. All shards route the
// same graph through the same hierarchy, so any shard's router answers
// preparation queries identically.
func (se *ShardedEngine) Router() *roadnet.Router { return se.shards[0].Router() }

// LandmarkOracle returns the shared landmark lower-bound estimator.
func (se *ShardedEngine) LandmarkOracle() *partition.Oracle { return se.shards[0].LandmarkOracle() }

// ClusterStats exposes the shared mobility clusters' statistics.
func (se *ShardedEngine) ClusterStats() mobcluster.Stats { return se.shards[0].ClusterStats() }

// IndexMemoryBytes reports the footprint of the dispatcher's index
// structures: every shard's partition index, plus the shared clusters and
// partitioning once.
func (se *ShardedEngine) IndexMemoryBytes() int64 {
	total := se.pt.MemoryBytes() + se.shards[0].clusters.Stats().MemoryBytes
	for _, sh := range se.shards {
		total += sh.pindex.Stats().MemoryBytes
	}
	return total
}

// Stats aggregates every shard's pipeline counters.
func (se *ShardedEngine) Stats() EngineStats {
	var s EngineStats
	for _, sh := range se.shards {
		s.Add(sh.Stats())
	}
	return s
}

// ShardStats returns the per-shard breakdown.
func (se *ShardedEngine) ShardStats() []ShardStats {
	out := make([]ShardStats, len(se.shards))
	for i, sh := range se.shards {
		lo, hi := se.smap.Range(i)
		out[i] = ShardStats{
			Shard:                 i,
			FirstPartition:        lo,
			LastPartition:         hi,
			Taxis:                 sh.NumTaxis(),
			Requests:              se.ins[i].requests.Value(),
			CrossShardCandidates:  se.ins[i].crossCandidates.Value(),
			CrossShardAssignments: se.ins[i].crossAssignments.Value(),
			BorderConflicts:       se.ins[i].borderConflicts.Value(),
			Handoffs:              se.ins[i].handoffs.Value(),
			Engine:                sh.Stats(),
		}
	}
	return out
}

// Drain closes every shard for plan installation. When Drain returns, no
// shard is mid-commit and none can commit later.
func (se *ShardedEngine) Drain() {
	for _, sh := range se.shards {
		sh.Drain()
	}
}

// shardAt returns the territorial shard of a map position.
func (se *ShardedEngine) shardAt(v roadnet.VertexID) int {
	return se.smap.ShardOf(se.pt.PartitionOf(v))
}

// ownerIdx returns the shard holding the taxi's registry entry, falling
// back to the taxi's territorial shard when it was never registered.
func (se *ShardedEngine) ownerIdx(t *fleet.Taxi) int {
	se.mu.RLock()
	s, ok := se.owner[t.ID]
	se.mu.RUnlock()
	if ok {
		return s
	}
	return se.shardAt(t.At())
}

// AddTaxi registers a taxi with the shard owning its current position.
func (se *ShardedEngine) AddTaxi(t *fleet.Taxi, nowSeconds float64) {
	s := se.shardAt(t.At())
	se.mu.Lock()
	se.owner[t.ID] = s
	se.mu.Unlock()
	se.shards[s].AddTaxi(t, nowSeconds)
	se.ins[s].taxis.Set(float64(se.shards[s].NumTaxis()))
}

// Taxi returns a registered taxi from its owning shard.
func (se *ShardedEngine) Taxi(id int64) (*fleet.Taxi, bool) {
	se.mu.RLock()
	s, ok := se.owner[id]
	se.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return se.shards[s].Taxi(id)
}

// NumTaxis returns the fleet size across all shards.
func (se *ShardedEngine) NumTaxis() int {
	total := 0
	for _, sh := range se.shards {
		total += sh.NumTaxis()
	}
	return total
}

// ReindexTaxi refreshes a taxi's indexes, handing the taxi to a new
// owner shard when its position crossed a shard border. The handoff is
// deterministic — ownership is a pure function of position, and every
// driver (simulation, facade, server) serialises movement per taxi — so
// the same movement history always yields the same ownership history.
func (se *ShardedEngine) ReindexTaxi(t *fleet.Taxi, nowSeconds float64) {
	newS := se.shardAt(t.At())
	se.mu.RLock()
	old, registered := se.owner[t.ID]
	se.mu.RUnlock()
	if registered && old != newS {
		se.shards[old].removeTaxi(t.ID)
		nsh := se.shards[newS]
		nsh.mu.Lock()
		nsh.taxis[t.ID] = t
		nsh.mu.Unlock()
		se.mu.Lock()
		se.owner[t.ID] = newS
		se.mu.Unlock()
		se.ins[newS].handoffs.Inc()
		se.ins[old].taxis.Set(float64(se.shards[old].NumTaxis()))
		se.ins[newS].taxis.Set(float64(se.shards[newS].NumTaxis()))
	}
	se.shards[newS].ReindexTaxi(t, nowSeconds)
}

// OnRequestAssigned records cluster membership (shared across shards).
func (se *ShardedEngine) OnRequestAssigned(req *fleet.Request) {
	se.shards[0].OnRequestAssigned(req)
}

// OnRequestDone removes a finished request from the shared clusters.
func (se *ShardedEngine) OnRequestDone(req *fleet.Request) {
	se.shards[0].OnRequestDone(req)
}

// CruisePlan plans an idle cruise through the taxi's owner shard (the
// plan is a pure function of position and the shared rng stream, so the
// choice of shard only affects cache locality).
func (se *ShardedEngine) CruisePlan(t *fleet.Taxi, maxMeters float64) ([]roadnet.VertexID, bool) {
	return se.shards[se.ownerIdx(t)].CruisePlan(t, maxMeters)
}

func (se *ShardedEngine) installPlan(t *fleet.Taxi, events []fleet.Event, legs [][]roadnet.VertexID) error {
	return se.shards[se.ownerIdx(t)].installPlan(t, events, legs)
}

func (se *ShardedEngine) noteCruisePlanned(t *fleet.Taxi) {
	se.shards[se.ownerIdx(t)].noteCruisePlanned(t)
}

// rlockAll acquires every shard's fleet read lock in ascending shard
// order — the reserve phase of the two-phase border protocol. Ascending
// acquisition plus the writers' single-lock discipline rules out
// deadlock.
func (se *ShardedEngine) rlockAll() {
	for _, sh := range se.shards {
		sh.mu.RLock()
	}
}

func (se *ShardedEngine) runlockAll() {
	for i := len(se.shards) - 1; i >= 0; i-- {
		se.shards[i].mu.RUnlock()
	}
}

// candidateTaxis is the sharded candidate taxi search: every shard's
// partition lists over the search disc (a taxi's rows live in its owner
// shard's index only, so the union of the shards' reads is the single
// engine's read), resolved through the owner map and refined by the home
// shard's Engine.refine against the shared clusters. Under BorderLocal only
// the home shard's rows and taxis are considered. The caller holds every
// shard's fleet read lock.
func (se *ShardedEngine) candidateTaxis(home int, req *fleet.Request, nowSeconds float64) []*fleet.Taxi {
	h := se.shards[home]
	ws := h.beginSearch(req, nowSeconds)
	if ws == nil {
		return nil
	}
	defer ws.release()
	localOnly := se.cfg.Sharding.Policy() == BorderLocal
	for s, sh := range se.shards {
		if !localOnly || s == home {
			ws.ids, ws.reach = sh.pindex.Search(ws.parts, ws.z, ws.deadline, ws.ids, ws.reach)
		}
	}
	se.mu.RLock()
	defer se.mu.RUnlock()
	for _, id := range ws.distinct() {
		s, ok := se.owner[id]
		if !ok || (localOnly && s != home) {
			continue
		}
		if t, ok := se.shards[s].taxis[id]; ok {
			ws.taxis = append(ws.taxis, t)
		}
	}
	out := h.refine(ws, req, nowSeconds)
	for _, t := range out {
		if se.owner[t.ID] != home {
			se.ins[home].crossCandidates.Inc()
		}
	}
	return out
}

// Dispatch routes the request to its home shard and runs Alg. 1 over the
// cross-shard candidate union. See DispatchContext.
func (se *ShardedEngine) Dispatch(req *fleet.Request, nowSeconds float64, probabilistic bool) (Assignment, bool) {
	return se.DispatchContext(context.Background(), req, nowSeconds, probabilistic)
}

// DispatchContext is the sharded dispatch: the request's home shard (the
// owner of its pickup partition) drives the evaluation; the reserve phase
// freezes every shard's fleet state under read locks in ascending order,
// evaluates the deduplicated cross-shard candidate set through the home
// shard's pipeline, and picks the winner in (detour, taxiID) order —
// exactly the single engine's reduction, which is what makes the sharded
// run bit-identical. The commit phase is Commit, routed to the winner's
// owner shard.
func (se *ShardedEngine) DispatchContext(ctx context.Context, req *fleet.Request, nowSeconds float64, probabilistic bool) (Assignment, bool) {
	home := se.HomeShard(req)
	h := se.shards[home]
	se.ins[home].requests.Inc()
	if h.tracer != nil && obs.TracerFrom(ctx) == nil {
		ctx = obs.WithTracer(ctx, h.tracer)
	}
	ctx, sp := obs.StartSpan(ctx, "dispatch")
	defer sp.End()
	tDispatch := time.Now()
	defer h.ins.dispatchSeconds.ObserveSince(tDispatch)

	// Reserve phase: all shards frozen from candidate search through the
	// winner's leg materialisation, so no commit (on any shard) can
	// invalidate a border candidate mid-evaluation.
	se.rlockAll()
	defer se.runlockAll()

	_, spc := obs.StartSpan(ctx, "dispatch.candidates")
	t0 := time.Now()
	cands := se.candidateTaxis(home, req, nowSeconds)
	h.ins.candidateSearchSeconds.ObserveSince(t0)
	spc.End()
	h.ins.dispatches.Inc()
	h.ins.candidatesExamined.Add(int64(len(cands)))
	best := Assignment{Req: req, Candidates: len(cands)}
	if len(cands) == 0 || ctx.Err() != nil {
		return best, false
	}
	return best, h.dispatchLocked(ctx, req, nowSeconds, probabilistic, cands, &best)
}

// Commit applies an assignment on the winning taxi's owner shard — the
// commit phase of the border protocol. The owner shard's write lock
// excludes every reserve phase (a reader of all shards), and SetPlan
// re-validates the schedule, so a reservation gone stale fails cleanly.
func (se *ShardedEngine) Commit(a Assignment, nowSeconds float64) error {
	if a.Taxi == nil {
		return fmt.Errorf("match: committing empty assignment")
	}
	owner := se.ownerIdx(a.Taxi)
	if err := se.shards[owner].Commit(a, nowSeconds); err != nil {
		return err
	}
	if a.Req != nil {
		if home := se.HomeShard(a.Req); home != owner {
			se.ins[home].crossAssignments.Inc()
		}
	}
	return nil
}

// TryServeOffline delegates a roadside encounter to the taxi's owner
// shard (the insertion only touches that taxi's schedule).
func (se *ShardedEngine) TryServeOffline(t *fleet.Taxi, req *fleet.Request, nowSeconds float64) bool {
	return se.shards[se.ownerIdx(t)].TryServeOffline(t, req, nowSeconds)
}

// DispatchBatch runs the deterministic batch protocol over the sharded
// dispatcher: phase 1 evaluates every request (each through its home
// shard) against the frozen fleet state, phase 2 commits in (pickup
// deadline, request ID) order with conflict re-dispatch. A conflict whose
// contested taxi lives on a different shard than the request's home is a
// border conflict — two shards reserved the same taxi in one round.
func (se *ShardedEngine) DispatchBatch(ctx context.Context, reqs []*fleet.Request, nowSeconds float64, probabilistic bool) []BatchOutcome {
	h := batchHooks{
		evaluated: func(r *fleet.Request) {
			se.shards[se.HomeShard(r)].ins.batchRequests.Inc()
		},
		conflict: func(o *BatchOutcome) {
			home := se.HomeShard(o.Req)
			se.shards[home].ins.batchConflicts.Inc()
			if se.ownerIdx(o.Assignment.Taxi) != home {
				se.ins[home].borderConflicts.Inc()
			}
		},
		// Round-level accounting has no per-request home; it lands on
		// shard 0 so the cross-shard aggregate equals the single engine's.
		assignRound: func(options int, fallback bool) {
			ins := &se.shards[0].ins
			ins.batchAssignRounds.Inc()
			ins.batchAssignOptions.Add(int64(options))
			if fallback {
				ins.batchAssignFallbacks.Inc()
			}
		},
		assignRemainderServed: func() { se.shards[0].ins.batchAssignRemainder.Inc() },
	}
	if se.cfg.BatchAssign {
		return runBatchAssign(ctx, se, reqs, nowSeconds, probabilistic, h)
	}
	return runBatch(ctx, se, reqs, nowSeconds, probabilistic, h)
}

// NewPendingPool builds the sharded pending-request pool: one queue per
// shard routed by home shard, bounded globally to capacity so
// backpressure matches the single-queue build exactly.
func (se *ShardedEngine) NewPendingPool(capacity int) Pool {
	g := &QueueGroup{
		se:       se,
		capacity: capacity,
		queues:   make([]*PendingQueue, len(se.shards)),
	}
	for i, sh := range se.shards {
		g.queues[i] = NewPendingQueue(capacity, se.cfg.SpeedMps).InstrumentWith(sh.reg)
	}
	return g
}
