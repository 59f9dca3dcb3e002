// Package mtshare is a mobility-aware dynamic taxi-ridesharing library —
// a from-scratch Go reproduction of mT-Share (Liu, Gong, Li, Wu:
// "Mobility-Aware Dynamic Taxi Ridesharing", ICDE 2020; extended in IEEE
// IoT Journal 2022). It matches ride requests to shared taxis using
// bipartite map partitioning, mobility clustering, partition-filtered
// routing, and probabilistic routing toward offline (street-hailing)
// passengers, and settles fares with the paper's benefit-sharing payment
// model.
//
// The package is a thin facade over the internal implementation: build a
// System over a road network and historical trips, register taxis, submit
// requests, and advance time. See the examples/ directory for runnable
// walkthroughs and DESIGN.md for the architecture.
package mtshare

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/payment"
	"repro/internal/replay"
	"repro/internal/roadnet"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Point is a geographic location in degrees.
type Point = geo.Point

// TaxiID identifies a registered taxi.
type TaxiID int64

// RequestID identifies a submitted ride request.
type RequestID int64

// Trip is one historical taxi trip used to mine mobility patterns.
type Trip struct {
	Origin Point
	Dest   Point
}

// Options configures a System.
type Options struct {
	// SyntheticCity generates the road network when no custom graph is
	// supplied: a Rows x Cols perturbed street grid.
	SyntheticCityRows int
	SyntheticCityCols int

	// Partitions is the target partition count κ (0 derives ~1 per 25
	// road vertices).
	Partitions int

	// SpeedKmh is the fleet speed (default 15, the paper's setting).
	SpeedKmh float64
	// SearchRangeMeters is the candidate search radius γ (default 2.5 km
	// scaled down to the city size when it exceeds the city diagonal).
	SearchRangeMeters float64
	// MaxDirectionDiffDegrees is θ, the mobility-clustering direction
	// tolerance (default 45°; λ = cos θ).
	MaxDirectionDiffDegrees float64
	// Probabilistic enables the mT-Share_pro behaviour: probabilistic
	// routing for taxis with spare seats and demand-seeking cruising of
	// idle taxis.
	Probabilistic bool

	// Parallelism bounds the dispatch worker pool that evaluates
	// candidate taxis concurrently. 0 uses GOMAXPROCS; 1 is strictly
	// sequential. Every level produces identical assignments.
	Parallelism int

	// QueueDepth bounds the pending-request queue. When positive, a
	// request that finds no feasible taxi is parked (SubmitRequest returns
	// ErrQueued) and re-dispatched in deterministic batches on Advance
	// ticks until it is served or its pickup deadline passes; when the
	// queue is full the request is rejected with ErrQueueFull. Zero (the
	// default) disables queueing: dispatch failures return
	// ErrNoTaxiAvailable immediately.
	QueueDepth int
	// RetryEveryTicks runs the queue's batch re-dispatch on every Nth
	// Advance call (default 1 — every tick). Expired requests are evicted
	// on every tick regardless.
	RetryEveryTicks int
	// BatchAssign switches the queue's retry rounds from greedy deadline-
	// order commits to a global min-cost assignment over the full
	// (request, taxi) cost graph, so a pending request can yield its
	// first-choice taxi to a tighter competitor instead of starving it
	// (see match.Config.BatchAssign). Deterministic at every Parallelism
	// level; the default keeps the greedy rounds.
	BatchAssign bool

	// History supplies the trips mined for transition patterns. When nil
	// a synthetic workday is generated.
	History []Trip

	// Seed makes world generation deterministic.
	Seed int64

	// Metrics receives the system's instruments (dispatch-stage
	// histograms, router cache counters, index gauges). Nil allocates a
	// private registry, retrievable via System.Metrics.
	Metrics *obs.Registry

	// TraceSampleEvery samples one in N dispatches with a span tree when
	// positive; sampled trees are delivered to TraceHandler. Zero
	// disables tracing.
	TraceSampleEvery int
	// TraceHandler receives sampled root spans. It may be called from
	// the goroutine that ran the dispatch.
	TraceHandler func(*obs.Span)

	// RecordTo, when set, records the run to this writer as a versioned
	// JSONL replay log: the header (seed, options, graph fingerprint,
	// fault plan) followed by every AddTaxi / SubmitRequest /
	// ReportStreetHail / Advance call with its outcome, closed by a
	// deterministic-counters snapshot on Close. Replay the log with
	// Replay (or cmd/mtshare-replay). Recording requires the synthetic
	// history: a custom History is not serialised into the log.
	RecordTo io.Writer

	// Durability, when Dir is set, makes the system crash-recoverable:
	// every event is appended to a CRC-framed, fsync'd write-ahead log in
	// Dir (the replay event encoding, so the WAL doubles as a replay
	// log), and — when SnapshotEveryTicks is positive — a deterministic
	// state snapshot is written every N Advance ticks so recovery replays
	// only the tail. Reopening a System over a non-empty Dir recovers:
	// the latest valid snapshot is restored and the WAL tail re-executed,
	// with every re-executed outcome verified against the recorded one.
	// Like RecordTo, durability requires the synthetic history.
	Durability DurabilityOptions

	// Faults enables the deterministic fault-injection layer: router
	// unreachability faults and latency spikes, pre-cancelled dispatch
	// contexts, and a forced shutdown, all derived from the plan's seed
	// and the event index. The plan travels in the recorded log header,
	// so fault-injected runs replay bit-identically.
	Faults *FaultPlan
}

// FaultPlan configures deterministic fault injection; see
// Options.Faults. The zero Every/At fields disable each fault class.
type FaultPlan = replay.FaultPlan

// DurabilityOptions configures the write-ahead log and snapshot cadence;
// see Options.Durability and wal.Options for field semantics. The zero
// value (empty Dir) disables durability.
type DurabilityOptions = wal.Options

// DefaultOptions returns the configuration New applies when fields are
// left zero: a deterministic 24x24 synthetic city, the paper's 15 km/h
// fleet speed, and a 45° mobility-clustering direction tolerance.
func DefaultOptions() Options {
	return Options{
		SyntheticCityRows:       24,
		SyntheticCityCols:       24,
		SpeedKmh:                15,
		MaxDirectionDiffDegrees: 45,
		Seed:                    1,
	}
}

// Validate reports whether the options are coherent. Zero-valued fields
// are legal (New fills them from DefaultOptions); explicitly negative or
// out-of-range values are not. Errors wrap ErrInvalidOptions.
func (o Options) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidOptions, fmt.Sprintf(format, args...))
	}
	if o.SyntheticCityRows < 0 || o.SyntheticCityCols < 0 {
		return fail("synthetic city dimensions %dx%d must not be negative", o.SyntheticCityRows, o.SyntheticCityCols)
	}
	if (o.SyntheticCityRows > 0 && o.SyntheticCityRows < 2) || (o.SyntheticCityCols > 0 && o.SyntheticCityCols < 2) {
		return fail("synthetic city needs at least 2x2 intersections, got %dx%d", o.SyntheticCityRows, o.SyntheticCityCols)
	}
	if o.Partitions < 0 {
		return fail("partitions %d must not be negative", o.Partitions)
	}
	if o.SpeedKmh < 0 {
		return fail("speed %g km/h must not be negative", o.SpeedKmh)
	}
	if o.SearchRangeMeters < 0 {
		return fail("search range %g m must not be negative", o.SearchRangeMeters)
	}
	if o.MaxDirectionDiffDegrees < 0 || o.MaxDirectionDiffDegrees > 180 {
		return fail("direction tolerance %g° must be within [0, 180]", o.MaxDirectionDiffDegrees)
	}
	if o.TraceSampleEvery < 0 {
		return fail("trace sample rate %d must not be negative", o.TraceSampleEvery)
	}
	if o.QueueDepth < 0 {
		return fail("queue depth %d must not be negative", o.QueueDepth)
	}
	if o.RetryEveryTicks < 0 {
		return fail("retry interval %d ticks must not be negative", o.RetryEveryTicks)
	}
	if o.RetryEveryTicks > 0 && o.QueueDepth == 0 {
		return fail("RetryEveryTicks requires QueueDepth > 0")
	}
	if o.RecordTo != nil && o.History != nil {
		return fail("recording requires the synthetic history; custom History is not serialised into the log")
	}
	if o.Parallelism < 0 {
		return fail("parallelism %d must not be negative", o.Parallelism)
	}
	if o.Durability.Enabled() {
		if o.History != nil {
			return fail("durability requires the synthetic history; custom History is not serialised into the WAL")
		}
		if o.Durability.SnapshotEveryTicks < 0 {
			return fail("snapshot interval %d ticks must not be negative", o.Durability.SnapshotEveryTicks)
		}
	}
	if err := o.Faults.Validate(); err != nil {
		return fail("fault plan: %v", err)
	}
	return nil
}

// withDefaults fills zero-valued fields from DefaultOptions.
func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.SyntheticCityRows == 0 {
		o.SyntheticCityRows = def.SyntheticCityRows
	}
	if o.SyntheticCityCols == 0 {
		o.SyntheticCityCols = def.SyntheticCityCols
	}
	if o.SpeedKmh == 0 {
		o.SpeedKmh = def.SpeedKmh
	}
	if o.MaxDirectionDiffDegrees == 0 {
		o.MaxDirectionDiffDegrees = def.MaxDirectionDiffDegrees
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.QueueDepth > 0 && o.RetryEveryTicks == 0 {
		o.RetryEveryTicks = 1
	}
	return o
}

// System is a running ridesharing dispatcher. It is not safe for
// concurrent use; internal/server provides the concurrent HTTP front.
type System struct {
	g      *roadnet.Graph
	spx    *roadnet.SpatialIndex
	engine *match.Engine
	scheme *match.Scheme
	pay    payment.Model

	now      float64
	taxis    map[TaxiID]*fleet.Taxi
	nextTaxi TaxiID
	nextReq  RequestID
	requests map[RequestID]*fleet.Request
	closed   bool

	// Pending-request queue (nil when Options.QueueDepth is 0): requests
	// that found no taxi wait here for batched re-dispatch every
	// retryEvery Advance ticks. ticks counts Advance calls.
	queue      *match.PendingQueue
	retryEvery int
	ticks      int64

	// Record/replay state: the log encoder (nil when not recording),
	// the fault plan and its router layer (nil without faults), and the
	// monotonically increasing event index every facade call consumes.
	rec         *replay.Encoder
	recDone     bool
	faults      *replay.FaultPlan
	faultRouter *replay.FaultRouter
	eventIndex  int64

	// Durability state (nil/zero without Options.Durability): the WAL,
	// the encoder appending events to it, the serialized header line the
	// WAL opened under (snapshot fingerprint), the snapshot cadence, and
	// the in-flight background snapshot writes Close waits for. onEvent,
	// when set, intercepts recorded events instead of appending them —
	// recovery re-executes the WAL tail under it to verify outcomes.
	wlog      *wal.Log
	walEnc    *replay.Encoder
	walDone   bool
	walHeader []byte
	snapEvery int
	snapWG    sync.WaitGroup
	onEvent   func(replay.Event)
	// walErr latches the WAL's sticky append/fsync error the moment
	// record observes it (setting closed alongside): the call whose
	// event failed to persist returns it instead of a clean ack, and
	// every later submission fails — a system that can no longer
	// persist must not keep acknowledging work.
	walErr error
}

// New builds a System. Zero-valued Options fields take the
// DefaultOptions values — the zero Options generates a deterministic
// ~3 km synthetic city and a day of synthetic history. Invalid options
// fail with an error wrapping ErrInvalidOptions.
func New(opts Options) (*System, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	cp := roadnet.DefaultCityParams(opts.SyntheticCityRows, opts.SyntheticCityCols)
	cp.Seed = opts.Seed
	g, err := roadnet.GenerateCity(cp)
	if err != nil {
		return nil, err
	}
	spx := roadnet.NewSpatialIndex(g, 250)

	history := opts.History
	if history == nil {
		min, max := g.Bounds()
		ds, err := trace.Generate(trace.Workday, trace.GenParams{
			Center:           geo.Midpoint(min, max),
			ExtentMeters:     geo.Equirect(geo.Point{Lat: min.Lat, Lng: min.Lng}, geo.Point{Lat: min.Lat, Lng: max.Lng}),
			TripsPerHourPeak: 300,
			UniformFrac:      0.15,
			Seed:             opts.Seed + 1,
		})
		if err != nil {
			return nil, err
		}
		for _, t := range ds.Trips {
			history = append(history, Trip{Origin: t.Origin, Dest: t.Dest})
		}
	}
	pairs := make([]struct{ Origin, Dest geo.Point }, len(history))
	for i, t := range history {
		pairs[i] = struct{ Origin, Dest geo.Point }{t.Origin, t.Dest}
	}
	kappa := opts.Partitions
	if kappa == 0 {
		kappa = g.NumVertices() / 25
		if kappa < 8 {
			kappa = 8
		}
	}
	pp := partition.DefaultParams(kappa)
	if pp.KTrans >= kappa {
		pp.KTrans = kappa / 2
	}
	pp.Seed = opts.Seed
	pt, err := partition.BuildBipartite(g, partition.SnapTrips(spx, pairs), pp)
	if err != nil {
		return nil, err
	}
	cfg := match.DefaultConfig()
	cfg.SpeedMps = opts.SpeedKmh * 1000 / 3600
	cfg.Lambda = geo.CosOfDegrees(opts.MaxDirectionDiffDegrees)
	cfg.Metrics = opts.Metrics
	if opts.TraceSampleEvery > 0 {
		cfg.Tracer = obs.NewTracer(opts.TraceSampleEvery, opts.TraceHandler)
	}
	var faultRouter *replay.FaultRouter
	if opts.Faults.Active() {
		faultRouter = replay.NewFaultRouter(*opts.Faults)
		cfg.RouterWrap = faultRouter.Wrap
	}
	if opts.SearchRangeMeters > 0 {
		cfg.SearchRangeMeters = opts.SearchRangeMeters
	} else {
		min, max := g.Bounds()
		diag := geo.Equirect(min, max)
		if cfg.SearchRangeMeters > diag/2 {
			cfg.SearchRangeMeters = diag / 2
		}
	}
	cfg.Parallelism = opts.Parallelism
	cfg.BatchAssign = opts.BatchAssign
	engine, err := match.NewEngine(pt, spx, cfg)
	if err != nil {
		return nil, err
	}
	s := &System{
		g:           g,
		spx:         spx,
		engine:      engine,
		scheme:      match.NewScheme(engine, opts.Probabilistic),
		pay:         payment.DefaultModel(),
		taxis:       make(map[TaxiID]*fleet.Taxi),
		requests:    make(map[RequestID]*fleet.Request),
		faults:      opts.Faults,
		faultRouter: faultRouter,
	}
	if opts.QueueDepth > 0 {
		s.queue = match.NewPendingQueue(opts.QueueDepth, cfg.SpeedMps).InstrumentWith(engine.Metrics())
		s.retryEvery = opts.RetryEveryTicks
	}
	if opts.RecordTo != nil {
		rec, err := replay.NewEncoder(opts.RecordTo, buildHeader(opts, g))
		if err != nil {
			return nil, err
		}
		s.rec = rec
	}
	if opts.Durability.Enabled() {
		if err := s.openDurability(opts); err != nil {
			if s.rec != nil {
				s.rec.Close()
			}
			return nil, err
		}
	}
	return s, nil
}

// buildHeader assembles the replay log header both the RecordTo log and
// the WAL open under. The same options must always serialize to the same
// bytes: snapshot fingerprinting and recovery's header check depend on
// it.
func buildHeader(opts Options, g *roadnet.Graph) replay.Header {
	return replay.Header{
		Version:                 replay.Version,
		Kind:                    replay.KindSystem,
		Seed:                    opts.Seed,
		Rows:                    opts.SyntheticCityRows,
		Cols:                    opts.SyntheticCityCols,
		Partitions:              opts.Partitions,
		SpeedKmh:                opts.SpeedKmh,
		SearchRangeMeters:       opts.SearchRangeMeters,
		MaxDirectionDiffDegrees: opts.MaxDirectionDiffDegrees,
		Probabilistic:           opts.Probabilistic,
		QueueDepth:              opts.QueueDepth,
		RetryEveryTicks:         opts.RetryEveryTicks,
		BatchAssign:             opts.BatchAssign,
		GraphFingerprint:        fmt.Sprintf("%016x", g.Fingerprint()),
		Faults:                  opts.Faults,
	}
}

// beginEvent consumes the next event index and applies the fault plan's
// per-event effects: the router fault epoch and the forced shutdown.
func (s *System) beginEvent() int64 {
	i := s.eventIndex
	s.eventIndex++
	if s.faultRouter != nil {
		s.faultRouter.SetEpoch(i)
	}
	if s.faults.ShutsDownAt(i) {
		s.closed = true
	}
	return i
}

// recording reports whether events must be assembled at all: a log
// encoder is active, the WAL is open, or recovery is intercepting.
func (s *System) recording() bool {
	return s.onEvent != nil || (s.rec != nil && !s.recDone) || (s.walEnc != nil && !s.walDone)
}

// record routes one event line: to the recovery interceptor during tail
// re-execution (and nowhere else — re-executed events are already in the
// WAL), otherwise to the record log and the WAL. A sticky WAL append or
// fsync error is latched in walErr and closes the system: the caller
// whose event failed to persist gets the error back (see durabilityErr),
// and everything after fails with ErrShutdown.
func (s *System) record(ev replay.Event) {
	if s.onEvent != nil {
		s.onEvent(ev)
		return
	}
	if s.rec != nil && !s.recDone {
		s.rec.Encode(ev)
	}
	if s.walEnc != nil && !s.walDone {
		s.walEnc.Encode(ev)
		if s.walErr == nil {
			err := s.walEnc.Err()
			if err == nil {
				err = s.wlog.Err() // interval-loop fsync failures surface here first
			}
			if err != nil {
				s.walErr = err
				s.closed = true
			}
		}
	}
}

// durabilityErr converts a just-latched WAL failure into the error the
// triggering call must return: its outcome is in memory but was never
// persisted, so acknowledging it cleanly would lie about what survives
// a restart. A call that already failed keeps its own error.
func (s *System) durabilityErr(err error) error {
	if err == nil && s.walErr != nil {
		return fmt.Errorf("mtshare: durability: %w", s.walErr)
	}
	return err
}

// errCode maps an API error onto the stable code the log stores; replay
// compares codes, so wrapped detail text may vary without diverging.
func errCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrQueued):
		return "queued"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrRequestExpired):
		return "expired"
	case errors.Is(err, ErrNoTaxiAvailable):
		return "no_taxi"
	case errors.Is(err, ErrInvalidRequest):
		return "invalid_request"
	case errors.Is(err, ErrUnknownTaxi):
		return "unknown_taxi"
	case errors.Is(err, ErrShutdown):
		return "shutdown"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "error"
	}
}

// Bounds returns the road network's bounding box, useful for placing
// taxis and requests.
func (s *System) Bounds() (min, max Point) { return s.g.Bounds() }

// Now returns the current simulation time.
func (s *System) Now() time.Duration {
	return time.Duration(s.now * float64(time.Second))
}

// Close shuts the system down: subsequent submissions fail with
// ErrShutdown, and the engine is drained so no in-flight dispatch can
// commit a plan after Close returns. When
// recording, Close seals the log with a snapshot of the run's
// deterministic counters and reports any deferred write error. Close is
// idempotent.
func (s *System) Close() error {
	s.closed = true
	s.engine.Drain()
	if (s.rec != nil && !s.recDone) || (s.walEnc != nil && !s.walDone) {
		s.record(replay.Event{I: s.eventIndex, Metrics: &replay.MetricsRecord{
			Counters: s.deterministicCounters(),
		}})
	}
	var firstErr error
	if s.rec != nil && !s.recDone {
		s.recDone = true
		firstErr = s.rec.Close()
	}
	if s.walEnc != nil && !s.walDone {
		s.walDone = true
		if err := s.walEnc.Err(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.wlog != nil {
		s.snapWG.Wait()
		if err := s.wlog.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.wlog = nil
	}
	return firstErr
}

// DurabilityStats reports the WAL's segment, snapshot, and fsync
// accounting; ok is false when Options.Durability was not enabled.
func (s *System) DurabilityStats() (stats wal.Stats, ok bool) {
	if s.wlog == nil {
		return wal.Stats{}, false
	}
	return s.wlog.Stats(), true
}

// deterministicCounters snapshots the counters whose values are a pure
// function of the event stream (see replay.DeterministicCounters).
func (s *System) deterministicCounters() map[string]int64 {
	return replay.DeterministicCounters(s.MetricsSnapshot().Counters)
}

// Metrics returns the system's instrument registry — the one passed via
// Options.Metrics, or the private registry New allocated. Serve it with
// WriteMetrics or walk it with Registry.Snapshot.
func (s *System) Metrics() *obs.Registry { return s.engine.Metrics() }

// MetricsSnapshot returns a point-in-time copy of every counter, gauge,
// and histogram.
func (s *System) MetricsSnapshot() obs.Snapshot { return s.engine.Metrics().Snapshot() }

// WriteMetrics writes the registry in Prometheus text exposition format.
func (s *System) WriteMetrics(w io.Writer) error { return s.engine.Metrics().WritePrometheus(w) }

// AddTaxi registers an empty taxi near the given position.
func (s *System) AddTaxi(at Point, capacity int) (TaxiID, error) {
	i := s.beginEvent()
	id, err := s.addTaxi(at, capacity)
	s.record(replay.Event{I: i, AddTaxi: &replay.AddTaxiEvent{
		At:       replay.Point{Lat: at.Lat, Lng: at.Lng},
		Capacity: capacity,
		Taxi:     int64(id),
		Err:      errCode(err),
	}})
	return id, s.durabilityErr(err)
}

func (s *System) addTaxi(at Point, capacity int) (TaxiID, error) {
	if s.closed {
		return 0, ErrShutdown
	}
	v, ok := s.spx.NearestVertex(at)
	if !ok {
		return 0, fmt.Errorf("%w: no road vertex near %v", ErrInvalidRequest, at)
	}
	s.nextTaxi++
	t := fleet.NewTaxi(s.g, int64(s.nextTaxi), capacity, v)
	s.taxis[s.nextTaxi] = t
	s.scheme.AddTaxi(t, s.now)
	return s.nextTaxi, nil
}

// Assignment reports a successful match.
type Assignment struct {
	Request        RequestID
	Taxi           TaxiID
	PickupETA      time.Duration
	DropoffETA     time.Duration
	DetourMeters   float64
	CandidateTaxis int
	// FareEstimate is the regular (no-sharing) fare; the settled shared
	// fare after delivery is at most this.
	FareEstimate float64
}

// SubmitRequest matches an online ride request released now. flexibility
// is the factor ρ over the direct travel time that the passenger accepts
// as the delivery deadline (e.g. 1.3); zero takes the 1.3 default, and
// values below 1.05 are rejected with ErrInvalidRequest. When no taxi
// can serve the request the error is ErrNoTaxiAvailable and the returned
// Assignment still reports the candidate-set size. ctx cancellation is
// honoured between dispatch stages, and a tracer carried by ctx samples
// the dispatch span tree.
func (s *System) SubmitRequest(ctx context.Context, pickup, dropoff Point, flexibility float64) (Assignment, error) {
	i := s.beginEvent()
	ctx = s.faults.MaybeCancel(ctx, i)
	a, err := s.submitRequest(ctx, pickup, dropoff, flexibility)
	s.record(replay.Event{I: i, Request: &replay.RequestEvent{
		Pickup:      replay.Point{Lat: pickup.Lat, Lng: pickup.Lng},
		Dropoff:     replay.Point{Lat: dropoff.Lat, Lng: dropoff.Lng},
		Flexibility: flexibility,
		Out:         requestOutcome(a, err),
	}})
	return a, s.durabilityErr(err)
}

// requestOutcome renders an Assignment and error as the log outcome.
func requestOutcome(a Assignment, err error) replay.RequestOutcome {
	return replay.RequestOutcome{
		Err:             errCode(err),
		Request:         int64(a.Request),
		Taxi:            int64(a.Taxi),
		Candidates:      a.CandidateTaxis,
		DetourMeters:    a.DetourMeters,
		PickupETANanos:  int64(a.PickupETA),
		DropoffETANanos: int64(a.DropoffETA),
		FareEstimate:    a.FareEstimate,
	}
}

func (s *System) submitRequest(ctx context.Context, pickup, dropoff Point, flexibility float64) (Assignment, error) {
	if s.closed {
		return Assignment{}, ErrShutdown
	}
	req, err := s.makeRequest(pickup, dropoff, flexibility, false)
	if err != nil {
		return Assignment{}, err
	}
	a, ok := s.engine.DispatchContext(ctx, req, s.now, s.scheme.Probabilistic)
	if !ok {
		out := Assignment{Request: RequestID(req.ID), CandidateTaxis: a.Candidates}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		// With the pending queue enabled the request parks for batched
		// re-dispatch instead of failing; a full queue is an explicit,
		// terminal backpressure signal, while an already-passed pickup
		// deadline is a terminal miss that no queueing could save.
		if s.queue != nil {
			switch s.queue.Push(req, s.now) {
			case match.PushAccepted:
				return out, ErrQueued
			case match.PushRejectedExpired:
				return out, ErrRequestExpired
			default:
				return out, ErrQueueFull
			}
		}
		return out, ErrNoTaxiAvailable
	}
	if err := s.engine.Commit(a, s.now); err != nil {
		return Assignment{}, err
	}
	out := Assignment{
		Request:        RequestID(req.ID),
		Taxi:           TaxiID(a.Taxi.ID),
		DetourMeters:   a.DetourMeters,
		CandidateTaxis: a.Candidates,
		FareEstimate:   s.pay.Tariff.Fare(req.DirectMeters),
	}
	for i, ev := range a.Events {
		if ev.Req.ID != req.ID {
			continue
		}
		eta := time.Duration((a.Eval.ArrivalSeconds[i] - s.now) * float64(time.Second))
		if ev.Kind == fleet.Pickup {
			out.PickupETA = eta
		} else {
			out.DropoffETA = eta
		}
	}
	return out, nil
}

// ReportStreetHail handles an offline passenger hailing the given taxi at
// the roadside: the system validates an insertion into the taxi's current
// schedule, or falls back to dispatching another taxi (the paper's
// server-side behaviour). It returns the serving taxi; when neither the
// hailed taxi nor any dispatched taxi can serve, the error is
// ErrNoTaxiAvailable.
func (s *System) ReportStreetHail(ctx context.Context, taxi TaxiID, pickup, dropoff Point, flexibility float64) (TaxiID, error) {
	i := s.beginEvent()
	ctx = s.faults.MaybeCancel(ctx, i)
	served, err := s.reportStreetHail(ctx, taxi, pickup, dropoff, flexibility)
	s.record(replay.Event{I: i, Hail: &replay.HailEvent{
		Taxi:        int64(taxi),
		Pickup:      replay.Point{Lat: pickup.Lat, Lng: pickup.Lng},
		Dropoff:     replay.Point{Lat: dropoff.Lat, Lng: dropoff.Lng},
		Flexibility: flexibility,
		Out:         replay.HailOutcome{Err: errCode(err), ServedBy: int64(served)},
	}})
	return served, s.durabilityErr(err)
}

func (s *System) reportStreetHail(ctx context.Context, taxi TaxiID, pickup, dropoff Point, flexibility float64) (TaxiID, error) {
	if s.closed {
		return 0, ErrShutdown
	}
	t, ok := s.taxis[taxi]
	if !ok {
		return 0, fmt.Errorf("%w: taxi %d", ErrUnknownTaxi, taxi)
	}
	req, err := s.makeRequest(pickup, dropoff, flexibility, true)
	if err != nil {
		return 0, err
	}
	if s.engine.TryServeOffline(t, req, s.now) {
		return taxi, nil
	}
	a, ok := s.engine.DispatchContext(ctx, req, s.now, s.scheme.Probabilistic)
	if !ok {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 0, ErrNoTaxiAvailable
	}
	if err := s.engine.Commit(a, s.now); err != nil {
		return 0, err
	}
	return TaxiID(a.Taxi.ID), nil
}

func (s *System) makeRequest(pickup, dropoff Point, flexibility float64, offline bool) (*fleet.Request, error) {
	if flexibility == 0 {
		flexibility = 1.3
	}
	if flexibility < 1.05 {
		return nil, fmt.Errorf("%w: flexibility %g below minimum 1.05", ErrInvalidRequest, flexibility)
	}
	o, ok1 := s.spx.NearestVertex(pickup)
	d, ok2 := s.spx.NearestVertex(dropoff)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%w: endpoints off the road network", ErrInvalidRequest)
	}
	if o == d {
		return nil, fmt.Errorf("%w: pickup and dropoff snap to the same intersection", ErrInvalidRequest)
	}
	direct := s.engine.Router().Cost(o, d)
	speed := s.engine.Config().SpeedMps
	s.nextReq++
	req := &fleet.Request{
		ID:           fleet.RequestID(s.nextReq),
		ReleaseAt:    s.Now(),
		Origin:       o,
		Dest:         d,
		Deadline:     s.Now() + time.Duration(direct/speed*flexibility*float64(time.Second)),
		DirectMeters: direct,
		Passengers:   1,
		Offline:      offline,
		OriginPt:     s.g.Point(o),
		DestPt:       s.g.Point(d),
	}
	s.requests[RequestID(req.ID)] = req
	return req, nil
}

// RideEvent reports a pickup or dropoff that occurred during Advance.
type RideEvent struct {
	Request RequestID
	Taxi    TaxiID
	// Pickup is true for pickups, false for deliveries.
	Pickup bool
	At     time.Duration
}

// QueueMatchEvent reports a queued request matched by a tick's batch
// re-dispatch round.
type QueueMatchEvent struct {
	Request RequestID
	Taxi    TaxiID
	// Wait is the time the request spent queued before matching.
	Wait time.Duration
	// Conflict marks a match that re-dispatched after an earlier commit
	// of the same batch took its first-choice taxi.
	Conflict bool
}

// QueueOutcome reports one Advance tick's pending-queue maintenance:
// the requests its re-dispatch round matched and those evicted because
// their pickup deadline passed while queued (the expired terminal
// outcome). Both lists are in deterministic (pickup deadline, request
// ID) order.
type QueueOutcome struct {
	Matched []QueueMatchEvent
	Expired []RequestID
}

// Advance moves the world forward by d: taxis drive their planned routes,
// firing pickups and deliveries. Idle taxis cruise toward likely demand
// when the system runs in probabilistic mode. Taxis advance in ID order,
// so the ride-event sequence is deterministic for a given call history.
// With the pending queue enabled, each tick first evicts expired queued
// requests and — every Options.RetryEveryTicks ticks — re-dispatches the
// rest as a batch; use AdvanceWithQueue to observe those outcomes.
func (s *System) Advance(d time.Duration) []RideEvent {
	events, _ := s.AdvanceWithQueue(d)
	return events
}

// AdvanceWithQueue is Advance, additionally reporting what the tick's
// queue maintenance did. With the queue disabled the QueueOutcome is
// always empty.
func (s *System) AdvanceWithQueue(d time.Duration) ([]RideEvent, QueueOutcome) {
	i := s.beginEvent()
	s.ticks++
	qo := s.serviceQueue()
	events := s.advance(d)
	if s.recording() {
		rides := make([]replay.Ride, len(events))
		for k, ev := range events {
			rides[k] = replay.Ride{
				Request: int64(ev.Request),
				Taxi:    int64(ev.Taxi),
				Pickup:  ev.Pickup,
				AtNanos: int64(ev.At),
			}
		}
		tick := &replay.TickEvent{DNanos: int64(d), Rides: rides}
		for _, m := range qo.Matched {
			tick.QueueMatched = append(tick.QueueMatched, replay.QueueMatch{
				Request:   int64(m.Request),
				Taxi:      int64(m.Taxi),
				WaitNanos: int64(m.Wait),
				Conflict:  m.Conflict,
			})
		}
		for _, id := range qo.Expired {
			tick.QueueExpired = append(tick.QueueExpired, int64(id))
		}
		s.record(replay.Event{I: i, Tick: tick})
	}
	s.maybeSnapshot()
	return events, qo
}

// serviceQueue runs one tick of pending-queue maintenance: evict every
// request whose pickup deadline strictly passed, then — when the retry
// interval is due — re-dispatch the remaining batch through the engine.
func (s *System) serviceQueue() QueueOutcome {
	var out QueueOutcome
	if s.queue == nil {
		return out
	}
	for _, it := range s.queue.ExpireBefore(s.now) {
		out.Expired = append(out.Expired, RequestID(it.Req.ID))
		s.engine.OnRequestDone(it.Req)
	}
	if s.ticks%int64(s.retryEvery) != 0 {
		return out
	}
	batch := s.queue.NextBatch()
	if len(batch) == 0 {
		return out
	}
	enqueuedAt := make(map[fleet.RequestID]float64, len(batch))
	reqs := make([]*fleet.Request, len(batch))
	for i, it := range batch {
		reqs[i] = it.Req
		enqueuedAt[it.Req.ID] = it.EnqueuedAt
	}
	for _, o := range s.engine.DispatchBatch(context.Background(), reqs, s.now, s.scheme.Probabilistic) {
		if !o.Served {
			continue
		}
		s.queue.MarkServed(o.Req.ID, s.now)
		out.Matched = append(out.Matched, QueueMatchEvent{
			Request:  RequestID(o.Req.ID),
			Taxi:     TaxiID(o.Assignment.Taxi.ID),
			Wait:     time.Duration((s.now - enqueuedAt[o.Req.ID]) * float64(time.Second)),
			Conflict: o.Conflict,
		})
	}
	return out
}

// QueueStats summarises the pending queue's lifecycle counters. Enabled
// is false (and every field zero) when Options.QueueDepth was 0.
type QueueStats struct {
	Enabled  bool
	Depth    int
	Capacity int
	Enqueued int64
	Rejected int64
	Retries  int64
	Served   int64
	Expired  int64
}

// QueueStats returns a snapshot of the pending queue.
func (s *System) QueueStats() QueueStats {
	if s.queue == nil {
		return QueueStats{}
	}
	qs := s.queue.Stats()
	return QueueStats{
		Enabled:  true,
		Depth:    qs.Depth,
		Capacity: qs.Capacity,
		Enqueued: qs.Enqueued,
		Rejected: qs.Rejected,
		Retries:  qs.Retries,
		Served:   qs.Served,
		Expired:  qs.Expired,
	}
}

func (s *System) advance(d time.Duration) []RideEvent {
	dt := d.Seconds()
	speed := s.engine.Config().SpeedMps
	ids := make([]TaxiID, 0, len(s.taxis))
	for id := range s.taxis {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var events []RideEvent
	for _, id := range ids {
		t := s.taxis[id]
		startNow := s.now
		for _, v := range t.Advance(speed * dt) {
			when := time.Duration((startNow + v.MetersIntoTick/speed) * float64(time.Second))
			events = append(events, RideEvent{
				Request: RequestID(v.Event.Req.ID),
				Taxi:    id,
				Pickup:  v.Event.Kind == fleet.Pickup,
				At:      when,
			})
			if v.Event.Kind == fleet.Dropoff {
				s.engine.OnRequestDone(v.Event.Req)
			}
		}
		s.scheme.OnTaxiAdvanced(t, s.now+dt)
		if s.scheme.Probabilistic {
			s.scheme.PlanIdle(t, s.now+dt)
		}
	}
	s.now += dt
	return events
}

// TaxiStatus describes a taxi's current state.
type TaxiStatus struct {
	ID            TaxiID
	Position      Point
	OccupiedSeats int
	Capacity      int
	PendingEvents int
}

// Taxi returns the status of a taxi.
func (s *System) Taxi(id TaxiID) (TaxiStatus, error) {
	t, ok := s.taxis[id]
	if !ok {
		return TaxiStatus{}, fmt.Errorf("%w: taxi %d", ErrUnknownTaxi, id)
	}
	return TaxiStatus{
		ID:            id,
		Position:      t.Point(),
		OccupiedSeats: t.OccupiedSeats(),
		Capacity:      t.Capacity,
		PendingEvents: len(t.Schedule()),
	}, nil
}

// FareQuote applies the payment model to a completed shared ride group.
// Each entry pairs a passenger's direct (shortest-path) distance with the
// distance actually ridden; routeMeters is the shared route length. See
// payment.Model for the underlying Eqs. 5-8.
func (s *System) FareQuote(routeMeters float64, rides []SharedRide) FareSettlement {
	recs := make([]payment.RideRecord, len(rides))
	for i, r := range rides {
		recs[i] = payment.RideRecord{
			ID:           fleet.RequestID(i + 1),
			DirectMeters: r.DirectMeters,
			SharedMeters: r.RiddenMeters,
			Completed:    true,
		}
	}
	st := s.pay.Settle(routeMeters, recs)
	out := FareSettlement{
		RouteFare:    st.RouteFare,
		Benefit:      st.Benefit,
		DriverIncome: st.DriverIncome,
	}
	for i := range rides {
		id := fleet.RequestID(i + 1)
		out.Fares = append(out.Fares, st.Fares[id])
		out.Savings = append(out.Savings, st.Savings[id])
	}
	return out
}

// SharedRide describes one passenger of a completed shared trip.
type SharedRide struct {
	DirectMeters float64
	RiddenMeters float64
}

// FareSettlement is the outcome of FareQuote, index-aligned with the
// input rides.
type FareSettlement struct {
	RouteFare    float64
	Benefit      float64
	DriverIncome float64
	Fares        []float64
	Savings      []float64
}

// Stats summarises the system.
type Stats struct {
	RoadVertices     int
	RoadEdges        int
	Partitions       int
	Taxis            int
	Requests         int
	IndexMemoryBytes int64
}

// Stats returns a system snapshot.
func (s *System) Stats() Stats {
	return Stats{
		RoadVertices:     s.g.NumVertices(),
		RoadEdges:        s.g.NumEdges(),
		Partitions:       s.engine.Partitioning().NumPartitions(),
		Taxis:            len(s.taxis),
		Requests:         len(s.requests),
		IndexMemoryBytes: s.engine.IndexMemoryBytes(),
	}
}
