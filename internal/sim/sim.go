// Package sim is the discrete-event evaluation substrate of the
// reproduction: it replays a day's ride requests against a fleet of taxis
// driven by a pluggable dispatch scheme, moving taxis exactly along their
// planned routes at the constant evaluation speed, detecting roadside
// encounters with offline requests, settling fares with the payment
// model, and collecting the metrics reported in the paper's §V (served
// requests, response time, detour time, waiting time, candidate-set size,
// fares and driver income).
package sim

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/payment"
	"repro/internal/replay"
	"repro/internal/roadnet"
	"repro/internal/wal"
)

// Params configures a simulation run.
type Params struct {
	// SpeedMps is the constant taxi speed (paper: 15 km/h).
	SpeedMps float64
	// TickSeconds is the simulation step (default 5 s).
	TickSeconds float64
	// EncounterRadiusMeters is how close a taxi must pass to a hailing
	// offline passenger to notice them (default 80 m).
	EncounterRadiusMeters float64
	// MaxDrainSeconds bounds the post-workload drain phase that lets
	// assigned passengers finish their rides (default 2 h).
	MaxDrainSeconds float64
	// IdlePlanEverySeconds throttles idle-cruise planning per taxi
	// (default 60 s).
	IdlePlanEverySeconds float64
	// Payment is the settlement model; zero value disables settlement.
	Payment payment.Model
	// SettlePayments enables fare settlement.
	SettlePayments bool
	// Parallelism bounds the workers that advance the fleet each tick.
	// 0 uses runtime.GOMAXPROCS(0); 1 is strictly sequential. Taxi
	// movement is taxi-local, and the fired events are applied in taxi-ID
	// order afterwards, so every parallelism level produces an identical
	// simulation.
	Parallelism int

	// QueueDepth bounds the pending-request queue. When positive, an
	// online request that finds no feasible taxi parks for batched
	// re-dispatch on later ticks instead of failing terminally; when the
	// queue is full the request is rejected (backpressure). Zero (the
	// default) disables queueing.
	QueueDepth int
	// RetryEveryTicks runs the queue's batch re-dispatch every Nth tick
	// (default 1 — every tick). Expired requests are evicted on every
	// tick regardless.
	RetryEveryTicks int
	// BatchAssign records that the scheme's dispatcher runs the queue's
	// retry rounds as a global min-cost assignment (match.Config.
	// BatchAssign). The simulation does not build the dispatcher — the
	// knob lives in the scheme's engine config — but it changes which
	// requests are served, so it lands in the recorded log header for
	// provenance and replay.
	BatchAssign bool

	// ShiftChange models a driver-shift changeover mid-run: at AtSeconds
	// a seeded Fraction of the then-current fleet goes off shift — each
	// cohort taxi finishes its committed schedule, then stops accepting
	// passengers (its capacity drops to zero) — and LagSeconds later the
	// same number of fresh taxis come on shift at seeded vertices. The
	// zero value disables the changeover.
	ShiftChange ShiftChangeConfig

	// Metrics receives the simulation's instruments under mtshare_sim_*
	// (ticks, tick latency, request lifecycle, roadside encounters). nil
	// gives the engine a private registry; pass the dispatcher's registry
	// to see simulation and matching on one surface.
	Metrics *obs.Registry

	// RecordTo, when set, records the run as a replay.KindSim JSONL log:
	// every dispatch outcome, roadside-encounter service, and tick's ride
	// events, sealed with the deterministic counters. Two runs of the
	// same scripted workload must produce byte-identical logs
	// (replay.CompareLogs diffs them); wall-clock quantities are never
	// written.
	RecordTo io.Writer
	// RecordSeed stamps the log header with the workload seed for
	// provenance; it does not affect the simulation.
	RecordSeed int64

	// Durability, when enabled, appends the run's event stream to a
	// crash-safe WAL in wal.Options.Dir — the same replay-v3 records
	// RecordTo would see, framed and fsynced per the group-commit
	// settings. The simulation is batch-oriented, so this is event
	// durability only: a crashed run's WAL is complete, replayable
	// evidence of everything committed before the crash, but there is no
	// snapshot/resume path (use the facade's Options.Durability for
	// stateful recovery). SnapshotEveryTicks must be 0.
	Durability wal.Options
}

// ShiftChangeConfig parameterizes the mid-run driver-shift changeover.
// Everything is seeded and applied at tick boundaries in taxi-ID order,
// so a shift run is as deterministic as a plain one at any parallelism.
type ShiftChangeConfig struct {
	// AtSeconds is the simulated time the off-going cohort stops taking
	// new work; 0 disables the changeover entirely.
	AtSeconds float64
	// Fraction of the fleet (at AtSeconds) that goes off shift, in (0,1].
	Fraction float64
	// LagSeconds after AtSeconds before the replacement cohort comes on
	// shift — the supply dip the dispatcher must ride out.
	LagSeconds float64
	// Seed picks the off-going cohort and the replacements' start
	// vertices.
	Seed int64
}

// Enabled reports whether the changeover fires.
func (c ShiftChangeConfig) Enabled() bool { return c.AtSeconds > 0 }

// Validate reports whether the configuration is usable.
func (c ShiftChangeConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch {
	case c.Fraction <= 0 || c.Fraction > 1:
		return fmt.Errorf("sim: ShiftChange.Fraction must be in (0,1], got %v", c.Fraction)
	case c.LagSeconds < 0:
		return fmt.Errorf("sim: ShiftChange.LagSeconds negative")
	}
	return nil
}

// DefaultParams returns the evaluation defaults.
func DefaultParams() Params {
	return Params{
		SpeedMps:              15.0 * 1000 / 3600,
		TickSeconds:           5,
		EncounterRadiusMeters: 80,
		MaxDrainSeconds:       7200,
		IdlePlanEverySeconds:  60,
		Payment:               payment.DefaultModel(),
		SettlePayments:        true,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.SpeedMps <= 0:
		return fmt.Errorf("sim: SpeedMps must be positive, got %v", p.SpeedMps)
	case p.TickSeconds <= 0:
		return fmt.Errorf("sim: TickSeconds must be positive, got %v", p.TickSeconds)
	case p.EncounterRadiusMeters < 0:
		return fmt.Errorf("sim: EncounterRadiusMeters negative")
	case p.MaxDrainSeconds < 0:
		return fmt.Errorf("sim: MaxDrainSeconds negative")
	case p.Parallelism < 0:
		return fmt.Errorf("sim: Parallelism negative")
	case p.QueueDepth < 0:
		return fmt.Errorf("sim: QueueDepth negative")
	case p.RetryEveryTicks < 0:
		return fmt.Errorf("sim: RetryEveryTicks negative")
	case p.RetryEveryTicks > 0 && p.QueueDepth == 0:
		return fmt.Errorf("sim: RetryEveryTicks requires QueueDepth > 0")
	case p.Durability.Enabled() && p.Durability.SnapshotEveryTicks != 0:
		return fmt.Errorf("sim: Durability.SnapshotEveryTicks is not supported (event durability only)")
	}
	return p.ShiftChange.Validate()
}

// parallelism returns the effective per-tick worker count.
func (p Params) parallelism() int {
	if p.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Parallelism
}

// RequestRecord tracks one request through the simulation.
type RequestRecord struct {
	Req           *fleet.Request
	Served        bool
	ServedOffline bool
	Delivered     bool
	Expired       bool
	// TaxiID is the serving taxi (0 while unassigned).
	TaxiID int64
	// Queued marks a request that parked in the pending queue after its
	// initial dispatch failed; QueueRetries counts its batch re-dispatch
	// rounds and QueueWaitSeconds the queued-to-matched delay (0 until
	// matched). ServedFromQueue marks a queued request a retry served.
	Queued           bool
	ServedFromQueue  bool
	QueueRetries     int
	QueueWaitSeconds float64
	// Times are absolute simulation seconds.
	AssignSeconds  float64
	PickupSeconds  float64
	DropoffSeconds float64
	// ResponseNanos is the wall-clock processing time of the dispatch
	// call (the paper's response-time metric).
	ResponseNanos int64
	// Candidates is the candidate-set size examined at dispatch.
	Candidates int
	// Odometer snapshots support exact shared-distance accounting.
	pickupOdo  float64
	dropoffOdo float64
	// Fares (filled when settlement is enabled and the ride completed).
	RegularFare float64
	PaidFare    float64
}

// SharedMeters returns the distance the passenger rode on the shared
// route.
func (r *RequestRecord) SharedMeters() float64 { return r.dropoffOdo - r.pickupOdo }

// WaitingSeconds returns pickup − release for delivered requests.
func (r *RequestRecord) WaitingSeconds() float64 {
	return r.PickupSeconds - r.Req.ReleaseAt.Seconds()
}

// DetourSeconds returns the extra in-vehicle time over the direct trip.
func (r *RequestRecord) DetourSeconds(speedMps float64) float64 {
	inVehicle := r.DropoffSeconds - r.PickupSeconds
	return inVehicle - r.Req.DirectSeconds(speedMps)
}

// episode tracks one continuous shared ride of a taxi (first pickup from
// empty to the dropoff that empties it) for settlement.
type episode struct {
	startOdo float64
	rides    []payment.RideRecord
}

// Engine drives one simulation run. It is single-goroutine.
type Engine struct {
	params Params
	g      *roadnet.Graph
	scheme dispatch.Scheme

	taxis    []*fleet.Taxi
	episodes map[int64]*episode
	lastIdle map[int64]float64

	taxiGrid *index.LocationGrid

	records map[fleet.RequestID]*RequestRecord
	pending []*fleet.Request // offline, released, not yet served/expired

	// Pending-request queue (nil when Params.QueueDepth is 0): online
	// requests whose dispatch failed wait here for batched re-dispatch
	// every retryEvery ticks. tickCount counts completed ticks.
	queue      *match.PendingQueue
	retryEvery int
	tickCount  int64

	// Aggregates.
	driverIncome    float64
	totalPaid       float64
	totalRegular    float64
	settledRides    int
	occupiedSecs    float64
	passengerMeters float64
	startSeconds    float64
	wallStart       time.Time
	ExecutionSecs   float64
	FinalSimSeconds float64

	// Shift-changeover state (zero when Params.ShiftChange is disabled):
	// the off-going cohort in taxi-ID order, their original capacities
	// (the replacements mirror them), and the two phase latches.
	shiftCohort   []*fleet.Taxi
	shiftCaps     []int
	shiftPicked   bool
	shiftReplaced bool
	shiftIns      *shiftInstruments

	reg *obs.Registry
	ins simInstruments

	rec      *replay.Encoder
	wal      *wal.Log
	eventIdx int64
}

// simInstruments are the simulation's registry-backed instruments.
type simInstruments struct {
	ticks            *obs.Counter
	requestsReleased *obs.Counter
	requestsServed   *obs.Counter
	encounters       *obs.Counter
	tickSeconds      *obs.Histogram
	dispatchSeconds  *obs.Histogram
	// Pending-queue lifecycle. All counters are a pure function of the
	// event stream, so they land in the recorded deterministic counters;
	// the depth gauge is excluded (gauges never record).
	queueDepth    *obs.Gauge
	queueEnqueued *obs.Counter
	queueRejected *obs.Counter
	queueRetries  *obs.Counter
	queueServed   *obs.Counter
	queueExpired  *obs.Counter
}

// shiftInstruments are registered only when the changeover is enabled:
// the counters live under the deterministic mtshare_sim_ prefix, and an
// unconditional registration would grow zero-valued entries in every
// sealed golden log.
type shiftInstruments struct {
	offShift     *obs.Counter
	retired      *obs.Counter
	replacements *obs.Counter
}

func newShiftInstruments(reg *obs.Registry) *shiftInstruments {
	return &shiftInstruments{
		offShift:     reg.Counter("mtshare_sim_shift_offshift_total"),
		retired:      reg.Counter("mtshare_sim_shift_retired_total"),
		replacements: reg.Counter("mtshare_sim_shift_replacements_total"),
	}
}

func newSimInstruments(reg *obs.Registry) simInstruments {
	return simInstruments{
		ticks:            reg.Counter("mtshare_sim_ticks_total"),
		requestsReleased: reg.Counter("mtshare_sim_requests_released_total"),
		requestsServed:   reg.Counter("mtshare_sim_requests_served_total"),
		encounters:       reg.Counter("mtshare_sim_encounters_total"),
		tickSeconds:      reg.Histogram("mtshare_sim_tick_seconds"),
		dispatchSeconds:  reg.Histogram("mtshare_sim_dispatch_seconds"),
		queueDepth:       reg.Gauge("mtshare_sim_queue_depth"),
		queueEnqueued:    reg.Counter("mtshare_sim_queue_enqueued_total"),
		queueRejected:    reg.Counter("mtshare_sim_queue_rejected_total"),
		queueRetries:     reg.Counter("mtshare_sim_queue_retries_total"),
		queueServed:      reg.Counter("mtshare_sim_queue_served_total"),
		queueExpired:     reg.Counter("mtshare_sim_queue_expired_total"),
	}
}

// NewEngine creates a simulation over the graph with the given scheme.
func NewEngine(g *roadnet.Graph, scheme dispatch.Scheme, params Params) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	min, max := g.Bounds()
	reg := params.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		params:   params,
		g:        g,
		scheme:   scheme,
		episodes: make(map[int64]*episode),
		lastIdle: make(map[int64]float64),
		taxiGrid: index.NewLocationGrid(min, max, 300),
		records:  make(map[fleet.RequestID]*RequestRecord),
		reg:      reg,
		ins:      newSimInstruments(reg),
	}
	if params.ShiftChange.Enabled() {
		e.shiftIns = newShiftInstruments(reg)
	}
	if params.QueueDepth > 0 {
		e.queue = match.NewPendingQueue(params.QueueDepth, params.SpeedMps)
		e.retryEvery = params.RetryEveryTicks
		if e.retryEvery == 0 {
			e.retryEvery = 1
		}
	}
	target := params.RecordTo
	if params.Durability.Enabled() {
		wlog, err := wal.Open(params.Durability, reg)
		if err != nil {
			return nil, err
		}
		if wlog.Records() > 0 {
			wlog.Close()
			return nil, fmt.Errorf("sim: durability dir %q already holds %d records; the simulation starts fresh logs only", params.Durability.Dir, wlog.Records())
		}
		e.wal = wlog
		if target != nil {
			target = io.MultiWriter(target, wlog.AppendWriter())
		} else {
			target = wlog.AppendWriter()
		}
	}
	if target != nil {
		rec, err := replay.NewEncoder(target, replay.Header{
			Version:          replay.Version,
			Kind:             replay.KindSim,
			Seed:             params.RecordSeed,
			SpeedKmh:         params.SpeedMps * 3.6,
			QueueDepth:       params.QueueDepth,
			RetryEveryTicks:  params.RetryEveryTicks,
			BatchAssign:      params.BatchAssign,
			GraphFingerprint: fmt.Sprintf("%016x", g.Fingerprint()),
		})
		if err != nil {
			if e.wal != nil {
				e.wal.Close()
			}
			return nil, err
		}
		e.rec = rec
	}
	return e, nil
}

// record appends one event line when recording is active, consuming the
// next event index.
func (e *Engine) record(build func(i int64) replay.Event) {
	if e.rec == nil {
		return
	}
	ev := build(e.eventIdx)
	e.eventIdx++
	e.rec.Encode(ev)
}

// RecordErr returns the log encoder's sticky write error, if recording
// was enabled and a write failed; with durability on, the WAL's sticky
// append/fsync error surfaces here too.
func (e *Engine) RecordErr() error {
	if e.rec != nil {
		if err := e.rec.Err(); err != nil {
			return err
		}
	}
	if e.wal != nil {
		return e.wal.Err()
	}
	return nil
}

// WALStats returns the durability log's statistics, when enabled.
func (e *Engine) WALStats() (wal.Stats, bool) {
	if e.wal == nil {
		return wal.Stats{}, false
	}
	return e.wal.Stats(), true
}

// Metrics returns the registry holding the simulation's instruments.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// PlaceTaxis creates n taxis with the given capacity at deterministic
// pseudo-random vertices and registers them with the scheme.
func (e *Engine) PlaceTaxis(n, capacity int, seed int64, startSeconds float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		at := roadnet.VertexID(rng.Intn(e.g.NumVertices()))
		t := fleet.NewTaxi(e.g, int64(i+1), capacity, at)
		e.taxis = append(e.taxis, t)
		e.scheme.AddTaxi(t, startSeconds)
		e.taxiGrid.Update(t.ID, t.Point())
	}
}

// Taxis returns the simulated fleet.
func (e *Engine) Taxis() []*fleet.Taxi { return e.taxis }

// Run replays the given requests (online and offline mixed; they carry
// the Offline flag) from startSeconds until all released requests are
// resolved and all taxis are empty, bounded by MaxDrainSeconds past the
// last release.
func (e *Engine) Run(requests []*fleet.Request, startSeconds float64) *Metrics {
	reqs := make([]*fleet.Request, len(requests))
	copy(reqs, requests)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].ReleaseAt < reqs[j].ReleaseAt })
	for _, r := range reqs {
		e.records[r.ID] = &RequestRecord{Req: r}
	}
	var lastRelease float64 = startSeconds
	if len(reqs) > 0 {
		lastRelease = reqs[len(reqs)-1].ReleaseAt.Seconds()
	}
	e.wallStart = time.Now()
	e.startSeconds = startSeconds
	now := startSeconds
	next := 0
	dt := e.params.TickSeconds
	for {
		tickStart := time.Now()
		// 0a. Shift changeover: retire emptied off-shift taxis, bring the
		// replacement cohort on before this tick's dispatches see them.
		e.serviceShift(now)
		// 0b. Pending-queue maintenance: evict requests whose pickup
		// deadline passed, then — when the retry interval is due —
		// re-dispatch the parked batch before this tick's releases.
		qMatched, qExpired := e.serviceQueue(now)
		// 1. Release requests due by now.
		for next < len(reqs) && reqs[next].ReleaseAt.Seconds() <= now {
			r := reqs[next]
			next++
			e.ins.requestsReleased.Inc()
			if r.Offline {
				e.pending = append(e.pending, r)
				continue
			}
			e.dispatchOnline(r, now, false)
		}
		// 2. Move taxis, firing events.
		e.advanceTaxis(now, dt, qMatched, qExpired)
		// 3. Roadside encounters with offline requests.
		e.handleEncounters(now + dt)
		// 4. Expire hopeless offline requests.
		e.expirePending(now + dt)
		// 5. Idle cruising (probabilistic variants).
		e.planIdle(now + dt)
		e.ins.ticks.Inc()
		e.ins.tickSeconds.ObserveSince(tickStart)

		now += dt
		if next >= len(reqs) && now > lastRelease {
			if (e.allTaxisIdle() && e.queueLen() == 0) || now > lastRelease+e.params.MaxDrainSeconds {
				break
			}
		}
	}
	e.ExecutionSecs = time.Since(e.wallStart).Seconds()
	e.FinalSimSeconds = now
	e.record(func(i int64) replay.Event {
		return replay.Event{I: i, Metrics: &replay.MetricsRecord{
			Counters: replay.DeterministicCounters(e.reg.Snapshot().Counters),
		}}
	})
	if e.wal != nil {
		e.wal.Close() // final flush+fsync; errors stay sticky for RecordErr
	}
	return e.collectMetrics()
}

// serviceShift runs the driver-shift changeover state machine at a tick
// boundary. Phase 1 (now >= AtSeconds): a seeded Fraction of the fleet
// is picked as the off-going cohort, in taxi-ID order; each cohort taxi
// finishes its committed schedule and is retired — capacity zeroed — the
// first tick it stands empty, making every later insertion infeasible
// while keeping the taxi's movement deterministic. Phase 2 (now >=
// AtSeconds + LagSeconds): one fresh replacement per cohort member, with
// the retiree's original capacity, comes on shift at a seeded vertex
// through the ordinary AddTaxi path. Everything is driven by simulated
// time and one seeded rng, so runs are bit-identical at any parallelism.
func (e *Engine) serviceShift(now float64) {
	sc := e.params.ShiftChange
	if !sc.Enabled() {
		return
	}
	if !e.shiftPicked && now >= sc.AtSeconds {
		rng := rand.New(rand.NewSource(sc.Seed))
		k := int(math.Round(sc.Fraction * float64(len(e.taxis))))
		if k < 1 {
			k = 1
		}
		picked := rng.Perm(len(e.taxis))[:k]
		sort.Ints(picked)
		for _, i := range picked {
			e.shiftCohort = append(e.shiftCohort, e.taxis[i])
			e.shiftCaps = append(e.shiftCaps, e.taxis[i].Capacity)
		}
		e.shiftPicked = true
		e.shiftIns.offShift.Add(int64(k))
	}
	if e.shiftPicked {
		for _, t := range e.shiftCohort {
			if t.Capacity > 0 && t.Empty() {
				t.Capacity = 0
				e.shiftIns.retired.Inc()
			}
		}
	}
	if e.shiftPicked && !e.shiftReplaced && now >= sc.AtSeconds+sc.LagSeconds {
		rng := rand.New(rand.NewSource(sc.Seed + 1))
		var nextID int64
		for _, t := range e.taxis {
			if t.ID > nextID {
				nextID = t.ID
			}
		}
		for _, capacity := range e.shiftCaps {
			nextID++
			at := roadnet.VertexID(rng.Intn(e.g.NumVertices()))
			t := fleet.NewTaxi(e.g, nextID, capacity, at)
			e.taxis = append(e.taxis, t)
			e.scheme.AddTaxi(t, now)
			e.taxiGrid.Update(t.ID, t.Point())
			e.shiftIns.replacements.Inc()
		}
		e.shiftReplaced = true
	}
}

// queueLen returns the pending queue's depth (0 when disabled).
func (e *Engine) queueLen() int {
	if e.queue == nil {
		return 0
	}
	return e.queue.Stats().Depth
}

// requestDropper lets a scheme clean per-request index state when a
// queued request expires without ever being committed (the match
// engine's mobility clusters hold the request from dispatch time).
type requestDropper interface{ OnRequestDone(req *fleet.Request) }

// serviceQueue runs one tick of pending-queue maintenance: evict every
// parked request whose pickup deadline strictly passed, then — when the
// retry interval is due — re-dispatch the remaining batch through the
// scheme. Returns the tick's matches and evictions for the replay log.
func (e *Engine) serviceQueue(now float64) (matched []replay.QueueMatch, expired []int64) {
	if e.queue == nil {
		return nil, nil
	}
	e.tickCount++
	for _, it := range e.queue.ExpireBefore(now) {
		if rec := e.records[it.Req.ID]; rec != nil {
			rec.Expired = true
			rec.QueueRetries = it.Retries
		}
		if d, ok := e.scheme.(requestDropper); ok {
			d.OnRequestDone(it.Req)
		}
		e.ins.queueExpired.Inc()
		expired = append(expired, int64(it.Req.ID))
	}
	defer func() { e.ins.queueDepth.Set(float64(e.queueLen())) }()
	if e.tickCount%int64(e.retryEvery) != 0 {
		return matched, expired
	}
	batch := e.queue.NextBatch()
	if len(batch) == 0 {
		return matched, expired
	}
	e.ins.queueRetries.Add(int64(len(batch)))
	reqs := make([]*fleet.Request, len(batch))
	items := make(map[fleet.RequestID]*match.PendingItem, len(batch))
	for i, it := range batch {
		reqs[i] = it.Req
		items[it.Req.ID] = it
	}
	for _, r := range e.batchDispatch(reqs, now) {
		if !r.Out.Served || !e.queue.MarkServed(r.Req.ID, now) {
			continue
		}
		it := items[r.Req.ID]
		wait := now - it.EnqueuedAt
		if rec := e.records[r.Req.ID]; rec != nil {
			rec.Served = true
			rec.ServedFromQueue = true
			rec.TaxiID = r.Out.TaxiID
			rec.AssignSeconds = now
			rec.QueueRetries = it.Retries
			rec.QueueWaitSeconds = wait
			rec.Candidates = r.Out.Candidates
		}
		e.ins.requestsServed.Inc()
		e.ins.queueServed.Inc()
		matched = append(matched, replay.QueueMatch{
			Request:   int64(r.Req.ID),
			Taxi:      r.Out.TaxiID,
			WaitNanos: int64(wait * float64(time.Second)),
			Conflict:  r.Conflict,
		})
	}
	return matched, expired
}

// batchDispatch routes a retry batch through the scheme: natively when
// it implements dispatch.BatchDispatcher, otherwise per-request in the
// batch's deterministic (pickup deadline, request ID) order.
func (e *Engine) batchDispatch(reqs []*fleet.Request, now float64) []dispatch.BatchResult {
	if bd, ok := e.scheme.(dispatch.BatchDispatcher); ok {
		return bd.OnBatch(reqs, now)
	}
	res := make([]dispatch.BatchResult, len(reqs))
	for i, r := range reqs {
		res[i] = dispatch.BatchResult{Req: r, Out: e.scheme.OnRequest(r, now)}
	}
	return res
}

func (e *Engine) allTaxisIdle() bool {
	for _, t := range e.taxis {
		if !t.Empty() {
			return false
		}
	}
	return true
}

// dispatchOnline runs the scheme's dispatcher for a request and records
// the outcome. offline marks requests that reached the dispatcher through
// the roadside-encounter fallback.
func (e *Engine) dispatchOnline(r *fleet.Request, now float64, offline bool) bool {
	rec := e.records[r.ID]
	t0 := time.Now()
	out := e.scheme.OnRequest(r, now)
	rec.ResponseNanos = time.Since(t0).Nanoseconds()
	e.ins.dispatchSeconds.Observe(float64(rec.ResponseNanos) / 1e9)
	rec.Candidates = out.Candidates
	errCode := ""
	if !out.Served {
		errCode = "no_taxi"
		// Online requests park in the pending queue for batched
		// re-dispatch instead of failing terminally; a full queue is an
		// explicit backpressure rejection, and a request whose pickup
		// deadline already passed is a terminal expiry, not backpressure.
		if !r.Offline && e.queue != nil {
			switch e.queue.Push(r, now) {
			case match.PushAccepted:
				errCode = "queued"
				rec.Queued = true
				e.ins.queueEnqueued.Inc()
				e.ins.queueDepth.Set(float64(e.queueLen()))
			case match.PushRejectedExpired:
				errCode = "expired"
				rec.Expired = true
				e.ins.queueRejected.Inc()
			default:
				errCode = "queue_full"
				e.ins.queueRejected.Inc()
			}
		}
	}
	e.record(func(i int64) replay.Event {
		return replay.Event{I: i, Request: &replay.RequestEvent{
			Pickup:  replay.Point{Lat: r.OriginPt.Lat, Lng: r.OriginPt.Lng},
			Dropoff: replay.Point{Lat: r.DestPt.Lat, Lng: r.DestPt.Lng},
			Out: replay.RequestOutcome{
				Err:        errCode,
				Request:    int64(r.ID),
				Taxi:       out.TaxiID,
				Candidates: out.Candidates,
			},
		}}
	})
	if !out.Served {
		return false
	}
	e.ins.requestsServed.Inc()
	rec.Served = true
	rec.ServedOffline = offline
	rec.TaxiID = out.TaxiID
	rec.AssignSeconds = now
	return true
}

// tickOutcome is one taxi's movement result for a tick, collected during
// the parallel advance phase and applied sequentially.
type tickOutcome struct {
	startOdo   float64
	wasOnboard int
	visits     []fleet.EventVisit
}

// advanceTaxis moves every taxi by speed·dt, processing fired events in
// order and keeping odometers, episodes, and the taxi grid current. The
// movement itself (polyline walking plus event firing inside the taxi) is
// taxi-local, so it fans out across Params.Parallelism workers; the
// engine-level consequences — request records, settlement episodes, grid
// updates, scheme callbacks — are applied afterwards in fleet order, so
// the simulation is deterministic at every parallelism level.
func (e *Engine) advanceTaxis(now, dt float64, qMatched []replay.QueueMatch, qExpired []int64) {
	distance := e.params.SpeedMps * dt
	outs := make([]tickOutcome, len(e.taxis))
	advance := func(i int) {
		t := e.taxis[i]
		outs[i] = tickOutcome{startOdo: t.Odometer(), wasOnboard: t.OccupiedSeats()}
		outs[i].visits = t.Advance(distance)
	}
	workers := e.params.parallelism()
	if workers > len(e.taxis) {
		workers = len(e.taxis)
	}
	if workers <= 1 {
		for i := range e.taxis {
			advance(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(e.taxis) {
						return
					}
					advance(i)
				}
			}()
		}
		wg.Wait()
	}
	var rides []replay.Ride
	for i, t := range e.taxis {
		o := outs[i]
		wasOnboard := o.wasOnboard
		for _, v := range o.visits {
			eventOdo := o.startOdo + v.MetersIntoTick
			eventTime := now + v.MetersIntoTick/e.params.SpeedMps
			e.processEvent(t, v.Event, eventOdo, eventTime, &wasOnboard)
			if e.rec != nil {
				rides = append(rides, replay.Ride{
					Request: int64(v.Event.Req.ID),
					Taxi:    t.ID,
					Pickup:  v.Event.Kind == fleet.Pickup,
					AtNanos: int64(eventTime * float64(time.Second)),
				})
			}
		}
		if t.OccupiedSeats() > 0 {
			e.occupiedSecs += dt
		}
		if t.Odometer() != o.startOdo || len(o.visits) > 0 {
			e.taxiGrid.Update(t.ID, t.Point())
		}
		e.scheme.OnTaxiAdvanced(t, now+dt)
	}
	e.record(func(i int64) replay.Event {
		return replay.Event{I: i, Tick: &replay.TickEvent{
			DNanos:       int64(dt * float64(time.Second)),
			Rides:        rides,
			QueueMatched: qMatched,
			QueueExpired: qExpired,
		}}
	})
}

// processEvent updates per-request records and per-taxi episodes for one
// pickup or dropoff.
func (e *Engine) processEvent(t *fleet.Taxi, ev fleet.Event, odo, when float64, onboard *int) {
	rec := e.records[ev.Req.ID]
	switch ev.Kind {
	case fleet.Pickup:
		if rec != nil {
			rec.PickupSeconds = when
			rec.pickupOdo = odo
		}
		if *onboard == 0 {
			e.episodes[t.ID] = &episode{startOdo: odo}
		}
		*onboard += ev.Req.Passengers
	case fleet.Dropoff:
		*onboard -= ev.Req.Passengers
		if rec != nil {
			rec.DropoffSeconds = when
			rec.dropoffOdo = odo
			rec.Delivered = true
			e.passengerMeters += rec.SharedMeters()
		}
		e.scheme.OnRequestCompleted(ev.Req, when)
		ep := e.episodes[t.ID]
		if ep != nil && rec != nil {
			ep.rides = append(ep.rides, payment.RideRecord{
				ID:           ev.Req.ID,
				DirectMeters: ev.Req.DirectMeters,
				SharedMeters: rec.SharedMeters(),
				Completed:    true,
			})
		}
		if *onboard == 0 && ep != nil {
			e.settleEpisode(ep, odo)
			delete(e.episodes, t.ID)
		}
	}
}

// settleEpisode applies the payment model to a finished shared ride.
func (e *Engine) settleEpisode(ep *episode, endOdo float64) {
	if !e.params.SettlePayments || len(ep.rides) == 0 {
		return
	}
	s := e.params.Payment.Settle(endOdo-ep.startOdo, ep.rides)
	e.driverIncome += s.DriverIncome
	for _, ride := range ep.rides {
		rec := e.records[ride.ID]
		if rec == nil {
			continue
		}
		rec.RegularFare = e.params.Payment.Tariff.Fare(ride.DirectMeters)
		rec.PaidFare = s.Fares[ride.ID]
		e.totalPaid += rec.PaidFare
		e.totalRegular += rec.RegularFare
		e.settledRides++
	}
}

// handleEncounters lets taxis passing a hailing offline passenger pick
// them up (§IV-C2's roadside interaction, and the adjusted baseline
// behaviour of §V-A2).
func (e *Engine) handleEncounters(now float64) {
	if len(e.pending) == 0 {
		return
	}
	remaining := e.pending[:0]
	for _, r := range e.pending {
		rec := e.records[r.ID]
		served := false
		for _, id := range e.taxiGrid.Near(r.OriginPt, e.params.EncounterRadiusMeters) {
			t := e.taxiByID(id)
			if t == nil || t.IdleSeats() < r.Passengers {
				continue
			}
			t0 := time.Now()
			ok := e.scheme.TryServeOffline(t, r, now)
			if ok {
				rec.ResponseNanos = time.Since(t0).Nanoseconds()
				rec.Served = true
				rec.ServedOffline = true
				rec.TaxiID = t.ID
				rec.AssignSeconds = now
				served = true
				e.ins.encounters.Inc()
				e.ins.requestsServed.Inc()
				e.record(func(i int64) replay.Event {
					return replay.Event{I: i, Hail: &replay.HailEvent{
						Taxi:    t.ID,
						Pickup:  replay.Point{Lat: r.OriginPt.Lat, Lng: r.OriginPt.Lng},
						Dropoff: replay.Point{Lat: r.DestPt.Lat, Lng: r.DestPt.Lng},
						Out:     replay.HailOutcome{ServedBy: t.ID},
					}}
				})
				break
			}
			// The driver reported the hailing passenger but could not fit
			// them; mT-Share's server dispatches another taxi.
			if e.scheme.SupportsOfflineDispatch() {
				if e.dispatchOnline(r, now, true) {
					served = true
					break
				}
			}
		}
		if !served {
			remaining = append(remaining, r)
		}
	}
	e.pending = remaining
}

func (e *Engine) taxiByID(id int64) *fleet.Taxi {
	// The fleet is dense and small; linear scan is fine for the tick
	// loop's purposes but a map would also do. IDs start at 1.
	i := int(id) - 1
	if i >= 0 && i < len(e.taxis) && e.taxis[i].ID == id {
		return e.taxis[i]
	}
	for _, t := range e.taxis {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// expirePending drops offline requests whose pickup deadline passed.
func (e *Engine) expirePending(now float64) {
	remaining := e.pending[:0]
	for _, r := range e.pending {
		if r.PickupDeadline(e.params.SpeedMps).Seconds() < now {
			e.records[r.ID].Expired = true
			continue
		}
		remaining = append(remaining, r)
	}
	e.pending = remaining
}

// planIdle offers parked, empty taxis to the scheme's idle planner.
func (e *Engine) planIdle(now float64) {
	for _, t := range e.taxis {
		if !t.Empty() || len(t.Route()) > 1 {
			continue
		}
		if now-e.lastIdle[t.ID] < e.params.IdlePlanEverySeconds {
			continue
		}
		e.lastIdle[t.ID] = now
		e.scheme.PlanIdle(t, now)
	}
}
