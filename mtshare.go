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
	"fmt"
	"io"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/payment"
	"repro/internal/replay"
	"repro/internal/service"
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

	// Policy is the dispatch policy: Probabilistic (mT-Share_pro),
	// QueueDepth, RetryEveryTicks (default 1 with a queue) and
	// BatchAssign. With a queue, a request that finds no feasible taxi
	// returns ErrQueued and is re-dispatched on Advance ticks until it is
	// served or its pickup deadline passes; a full queue returns
	// ErrQueueFull. Without one, dispatch failures return
	// ErrNoTaxiAvailable immediately.
	Policy

	// History supplies the trips mined for transition patterns. When nil
	// a synthetic workday is generated.
	History []Trip

	// Seed makes world generation deterministic.
	Seed int64

	// Metrics receives the system's instruments (dispatch-stage
	// histograms, router cache counters, index gauges). Nil allocates a
	// private registry, retrievable via System.Metrics. Queue, router and
	// WAL counts are kept only here (QueueStats and DurabilityStats read
	// them back), so two systems sharing one registry each see the sum,
	// as they do for dispatch counters.
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

// Policy is the dispatch policy; see Options.Policy and replay.Policy
// for field semantics.
type Policy = replay.Policy

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
	if err := o.Policy.Validate(); err != nil {
		return fail("%v", err)
	}
	if o.RecordTo != nil && o.History != nil {
		return fail("recording requires the synthetic history; custom History is not serialised into the log")
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

// world is the header's world half. It records the options as given
// (raw κ and γ), so the same options always serialise to the same bytes.
func (o Options) world() replay.World {
	return replay.World{
		Seed:                    o.Seed,
		Rows:                    o.SyntheticCityRows,
		Cols:                    o.SyntheticCityCols,
		Partitions:              o.Partitions,
		SpeedKmh:                o.SpeedKmh,
		SearchRangeMeters:       o.SearchRangeMeters,
		MaxDirectionDiffDegrees: o.MaxDirectionDiffDegrees,
	}
}

// System is a running ridesharing dispatcher: the library face of the
// dispatch runtime (internal/service) that internal/server also runs. It
// is not safe for concurrent use; internal/server provides the
// concurrent HTTP front.
type System struct {
	rt *service.Runtime
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
	var history []struct{ Origin, Dest geo.Point }
	if opts.History != nil {
		history = make([]struct{ Origin, Dest geo.Point }, len(opts.History))
		for i, t := range opts.History {
			history[i] = struct{ Origin, Dest geo.Point }{t.Origin, t.Dest}
		}
	}
	cfg := match.DefaultConfig()
	cfg.SpeedMps = opts.SpeedKmh * 1000 / 3600
	cfg.Lambda = geo.CosOfDegrees(opts.MaxDirectionDiffDegrees)
	cfg.Metrics = opts.Metrics
	if opts.TraceSampleEvery > 0 {
		cfg.Tracer = obs.NewTracer(opts.TraceSampleEvery, opts.TraceHandler)
	}
	cfg.SearchRangeMeters = opts.SearchRangeMeters
	rt, err := service.New(service.Config{
		Rows:                opts.SyntheticCityRows,
		Cols:                opts.SyntheticCityCols,
		Seed:                opts.Seed,
		History:             history,
		HistoryTripsPerHour: 300,
		Partitions:          opts.Partitions,
		PartitionSeed:       opts.Seed,
		Match:               cfg,
		Policy:              opts.Policy,
		Faults:              opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	world := opts.world()
	if opts.RecordTo != nil {
		if err := rt.RecordTo(opts.RecordTo, world); err != nil {
			return nil, err
		}
	}
	if opts.Durability.Enabled() {
		if err := rt.OpenWAL(opts.Durability, world); err != nil {
			return nil, fmt.Errorf("mtshare: durability: %w", err)
		}
	}
	return &System{rt: rt}, nil
}

// codeErrors maps the runtime's failure codes onto the sentinel errors.
var codeErrors = map[string]error{
	service.Queued:         ErrQueued,
	service.QueueFull:      ErrQueueFull,
	service.Expired:        ErrRequestExpired,
	service.NoTaxi:         ErrNoTaxiAvailable,
	service.InvalidRequest: ErrInvalidRequest,
	service.UnknownTaxi:    ErrUnknownTaxi,
	service.Shutdown:       ErrShutdown,
	service.Canceled:       context.Canceled,
	service.Deadline:       context.DeadlineExceeded,
}

// outcomeErr maps a runtime outcome code onto the sentinel errors. A
// call that succeeded in memory but whose event the WAL failed to persist
// returns the durability error instead of a clean ack: its outcome would
// not survive a restart. A call that already failed keeps its own error.
func (s *System) outcomeErr(code string) error {
	if code != service.OK {
		if err, ok := codeErrors[code]; ok {
			return err
		}
		return fmt.Errorf("mtshare: dispatch failed (%s)", code)
	}
	if err := s.rt.WALErr(); err != nil {
		return fmt.Errorf("mtshare: durability: %w", err)
	}
	return nil
}

// Bounds returns the road network's bounding box, useful for placing
// taxis and requests.
func (s *System) Bounds() (min, max Point) { return s.rt.Graph.Bounds() }

// Now returns the current simulation time.
func (s *System) Now() time.Duration {
	return time.Duration(s.rt.Now() * float64(time.Second))
}

// Close shuts the system down: subsequent submissions fail with
// ErrShutdown, and the engine is drained so no in-flight dispatch can
// commit a plan after Close returns. When
// recording, Close seals the log with a snapshot of the run's
// deterministic counters and reports any deferred write error. Close is
// idempotent.
func (s *System) Close() error {
	s.rt.Shutdown()
	return s.rt.Seal()
}

// DurabilityStats reports the WAL's segment, snapshot, and fsync
// accounting; ok is false when Options.Durability was not enabled.
func (s *System) DurabilityStats() (stats wal.Stats, ok bool) {
	if s.rt.WAL() == nil {
		return wal.Stats{}, false
	}
	return s.rt.WAL().Stats(), true
}

// Metrics returns the system's instrument registry — the one passed via
// Options.Metrics, or the private registry New allocated. Serve it with
// WriteMetrics or walk it with Registry.Snapshot.
func (s *System) Metrics() *obs.Registry { return s.rt.Engine.Metrics() }

// MetricsSnapshot returns a point-in-time copy of every counter, gauge,
// and histogram.
func (s *System) MetricsSnapshot() obs.Snapshot { return s.Metrics().Snapshot() }

// WriteMetrics writes the registry in Prometheus text exposition format.
func (s *System) WriteMetrics(w io.Writer) error { return s.Metrics().WritePrometheus(w) }

// AddTaxi registers an empty taxi near the given position.
func (s *System) AddTaxi(at Point, capacity int) (TaxiID, error) {
	id, code := s.rt.AddTaxi(at, capacity)
	return TaxiID(id), s.outcomeErr(code)
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
	ride := s.rt.NewRide(pickup, dropoff, flexibility)
	out := s.rt.Submit(ctx, ride)
	a := Assignment{
		Request:        RequestID(out.Request),
		Taxi:           TaxiID(out.Taxi),
		PickupETA:      time.Duration(out.PickupETA * float64(time.Second)),
		DropoffETA:     time.Duration(out.DropoffETA * float64(time.Second)),
		DetourMeters:   out.DetourMeters,
		CandidateTaxis: out.Candidates,
		FareEstimate:   out.Fare,
	}
	if out.Code == service.InvalidRequest {
		return a, fmt.Errorf("%w: %v", ErrInvalidRequest, ride.Err)
	}
	return a, s.outcomeErr(out.Code)
}

// ReportStreetHail handles an offline passenger hailing the given taxi at
// the roadside: the system validates an insertion into the taxi's current
// schedule, or falls back to dispatching another taxi (the paper's
// server-side behaviour). It returns the serving taxi; when neither the
// hailed taxi nor any dispatched taxi can serve, the error is
// ErrNoTaxiAvailable.
func (s *System) ReportStreetHail(ctx context.Context, taxi TaxiID, pickup, dropoff Point, flexibility float64) (TaxiID, error) {
	ride := s.rt.NewRide(pickup, dropoff, flexibility)
	out := s.rt.Hail(ctx, int64(taxi), ride)
	switch out.Code {
	case service.UnknownTaxi:
		return 0, fmt.Errorf("%w: taxi %d", ErrUnknownTaxi, taxi)
	case service.InvalidRequest:
		return 0, fmt.Errorf("%w: %v", ErrInvalidRequest, ride.Err)
	}
	return TaxiID(out.Taxi), s.outcomeErr(out.Code)
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
	tick := s.rt.Tick(d, true)
	var events []RideEvent
	for _, r := range tick.Rides {
		events = append(events, RideEvent{
			Request: RequestID(r.Request),
			Taxi:    TaxiID(r.Taxi),
			Pickup:  r.Pickup,
			At:      time.Duration(r.AtNanos),
		})
	}
	var qo QueueOutcome
	for _, m := range tick.QueueMatched {
		qo.Matched = append(qo.Matched, QueueMatchEvent{
			Request:  RequestID(m.Request),
			Taxi:     TaxiID(m.Taxi),
			Wait:     time.Duration(m.WaitNanos),
			Conflict: m.Conflict,
		})
	}
	for _, id := range tick.QueueExpired {
		qo.Expired = append(qo.Expired, RequestID(id))
	}
	return events, qo
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
	if s.rt.Queue == nil {
		return QueueStats{}
	}
	qs := s.rt.Queue.Stats()
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
	t, ok := s.rt.Taxi(int64(id))
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
	st := s.rt.Pay.Settle(routeMeters, recs)
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
		RoadVertices:     s.rt.Graph.NumVertices(),
		RoadEdges:        s.rt.Graph.NumEdges(),
		Partitions:       s.rt.Engine.Partitioning().NumPartitions(),
		Taxis:            len(s.rt.Taxis()),
		Requests:         len(s.rt.Requests()),
		IndexMemoryBytes: s.rt.Engine.IndexMemoryBytes(),
	}
}
