// Package service is the one dispatch runtime under the mtshare library
// facade, the HTTP server and the trace simulator: the world (road
// network, spatial index, partitioning, engine), the dispatch scheme, the
// taxi and request tables, the clock and the pending queue.
//
// Its phases — the retry round, dispatch-or-park, the roadside serve,
// placing a taxi and movement — are unrecorded and shared by every
// driver. The shells call four recorded compositions of them: AddTaxi,
// Submit, Hail and Tick. Each consumes one event index, and when a replay
// log, the write-ahead log or the verifier is listening it is recorded
// through one path (durable.go). The simulator composes the
// phases in its own tick order.
//
// The runtime is not safe for concurrent use: the facade is single-
// threaded by contract and the server serialises calls under its mutex.
// Outcomes are the replay log's codes; each shell maps them onto its own
// surface (sentinel errors, HTTP statuses).
package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/payment"
	"repro/internal/replay"
	"repro/internal/roadnet"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Outcome codes, as the replay log stores them.
const (
	OK             = ""
	Queued         = "queued"
	QueueFull      = "queue_full"
	Expired        = "expired"
	NoTaxi         = "no_taxi"
	InvalidRequest = "invalid_request"
	UnknownTaxi    = "unknown_taxi"
	Shutdown       = "shutdown"
	Canceled       = "canceled"
	Deadline       = "deadline"
	Failed         = "error"
)

// Config is what the runtime builds and how it runs it. Each shell maps
// its own options onto it and hands its Policy over unchanged; the
// runtime records that policy in every header it writes (durable.go).
type Config struct {
	// Rows, Cols and Seed generate the synthetic city.
	Rows, Cols int
	Seed       int64
	// History is the trips mined for transition patterns. Nil generates a
	// synthetic workday peaking at HistoryTripsPerHour, seeded Seed+1.
	History             []struct{ Origin, Dest geo.Point }
	HistoryTripsPerHour int
	// Partitions is κ; 0 derives one partition per 25 vertices (at least
	// 8). PartitionSeed seeds the partitioning; 0 keeps
	// partition.DefaultParams' seed.
	Partitions    int
	PartitionSeed int64
	// Match configures the engine. A zero SearchRangeMeters takes the
	// default γ, clamped to half the city diagonal; Policy.BatchAssign
	// overrides Match.BatchAssign.
	Match match.Config
	replay.Policy
	// Faults is the deterministic fault plan; nil injects none.
	Faults *replay.FaultPlan
	// CrashAtEvent, when positive, fsyncs the WAL and SIGKILLs the process
	// right after appending the event with that index: the deterministic
	// crash point of the kill -9 harness. Ignored without a WAL.
	CrashAtEvent int64
}

// Runtime is the running world. The exported fields are fixed at
// construction; Spatial, Engine and Kappa are nil and zero on a runtime
// built by Over.
type Runtime struct {
	Graph   *roadnet.Graph
	Spatial *roadnet.SpatialIndex
	Engine  *match.Engine
	Scheme  dispatch.Scheme
	Pay     payment.Model
	// Queue is the pending-request queue, nil when Config.QueueDepth is 0.
	Queue *match.PendingQueue
	// Kappa is the effective partition count.
	Kappa int

	policy     replay.Policy
	speed      float64
	retryEvery int
	now        float64
	ticks      int64
	// taxis[i] has ID i+1 and requests[i] has ID i+1: IDs are handed out
	// densely and nothing is ever removed.
	taxis    []*fleet.Taxi
	requests []*Request
	// episodes[i] is taxi i+1's open episode — from its first pickup while
	// empty to the dropoff that empties it — as the rides it delivered so
	// far, in dropoff order. They settle together when it empties.
	episodes [][]*Request
	closed   bool

	faults      *replay.FaultPlan
	faultRouter *replay.FaultRouter
	events      int64

	// Recording state (durable.go). rec is the RecordTo log, walEnc the
	// WAL's encoder; verify, when set, intercepts every event instead —
	// Verify re-executes a log under it. walErr latches the WAL's
	// sticky failure, closing the runtime.
	rec       *replay.Encoder
	wlog      *wal.Log
	walEnc    *replay.Encoder
	walHeader []byte
	snapEvery int
	snapWG    sync.WaitGroup
	verify    func(replay.Event)
	walErr    error
	crashAt   int64
}

// Request is one ride request and its lifecycle.
type Request struct {
	Req *fleet.Request `json:"req"`
	Lifecycle
}

// Lifecycle is a request's one record: the taxi serving it, its progress
// flags, and what each step measured. Times are sim-seconds; odometer
// readings are the serving taxi's. Whether it was served offline (Served
// and Req.Offline) or from the queue (Queued and Served) is derived.
type Lifecycle struct {
	Taxi      int64 `json:"taxi_id,omitempty"`
	Served    bool  `json:"served,omitempty"`
	Queued    bool  `json:"queued,omitempty"`
	Expired   bool  `json:"expired,omitempty"`
	PickedUp  bool  `json:"picked_up,omitempty"`
	Delivered bool  `json:"delivered,omitempty"`
	// Fare is the shared fare §IV-D settles (Eqs. 5–8) once the taxi
	// that delivered the request empties; see Runtime.Settled.
	Fare float64 `json:"fare,omitempty"`
	// Candidates is the candidate-set size of the last dispatch that
	// examined the request.
	Candidates int `json:"candidates,omitempty"`
	// QueueRetries counts a parked request's retry rounds, QueueWait its
	// queued-to-matched delay.
	QueueRetries int     `json:"queue_retries,omitempty"`
	QueueWait    float64 `json:"queue_wait,omitempty"`
	AssignAt     float64 `json:"assign_at,omitempty"`
	PickupAt     float64 `json:"pickup_at,omitempty"`
	DropoffAt    float64 `json:"dropoff_at,omitempty"`
	PickupOdo    float64 `json:"pickup_odo,omitempty"`
	DropoffOdo   float64 `json:"dropoff_odo,omitempty"`
}

// New builds the world: city, spatial index, history, partitioning,
// engine, in that order.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.Policy.Validate(); err != nil {
		return nil, fmt.Errorf("dispatch policy: %w", err)
	}
	cp := roadnet.DefaultCityParams(cfg.Rows, cfg.Cols)
	cp.Seed = cfg.Seed
	g, err := roadnet.GenerateCity(cp)
	if err != nil {
		return nil, err
	}
	spx := roadnet.NewSpatialIndex(g, 250)
	lo, hi := g.Bounds()
	trips := cfg.History
	if trips == nil {
		ds, err := trace.Generate(trace.Workday, trace.GenParams{
			Center:           geo.Midpoint(lo, hi),
			ExtentMeters:     geo.Equirect(geo.Point{Lat: lo.Lat, Lng: lo.Lng}, geo.Point{Lat: lo.Lat, Lng: hi.Lng}),
			TripsPerHourPeak: cfg.HistoryTripsPerHour,
			UniformFrac:      0.15,
			Seed:             cfg.Seed + 1,
		})
		if err != nil {
			return nil, err
		}
		trips = make([]struct{ Origin, Dest geo.Point }, len(ds.Trips))
		for i, t := range ds.Trips {
			trips[i] = struct{ Origin, Dest geo.Point }{t.Origin, t.Dest}
		}
	}
	kappa := cfg.Partitions
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
	if cfg.PartitionSeed != 0 {
		pp.Seed = cfg.PartitionSeed
	}
	pt, err := partition.BuildBipartite(g, partition.SnapTrips(spx, trips), pp)
	if err != nil {
		return nil, err
	}
	mcfg := cfg.Match
	mcfg.BatchAssign = cfg.BatchAssign
	if mcfg.SearchRangeMeters == 0 {
		mcfg.SearchRangeMeters = min(match.DefaultConfig().SearchRangeMeters, geo.Equirect(lo, hi)/2)
	}
	var faultRouter *replay.FaultRouter
	if cfg.Faults.Active() {
		faultRouter = replay.NewFaultRouter(*cfg.Faults)
		mcfg.RouterWrap = faultRouter.Wrap
	}
	eng, err := match.NewEngine(pt, spx, mcfg)
	if err != nil {
		return nil, err
	}
	r := Over(g, match.NewScheme(eng, cfg.Probabilistic), cfg.QueueDepth, cfg.RetryEveryTicks)
	r.Spatial, r.Engine, r.Kappa, r.policy = spx, eng, kappa, cfg.Policy
	r.faults, r.faultRouter, r.crashAt = cfg.Faults, faultRouter, cfg.CrashAtEvent
	if r.Queue != nil {
		r.Queue.InstrumentWith(eng.Metrics())
	}
	return r, nil
}

// Over builds a runtime that drives scheme over g with taxis moving at
// the scheme's speed. queueDepth > 0 parks unserved requests for
// re-dispatch every retryEvery ticks (at least 1).
func Over(g *roadnet.Graph, scheme dispatch.Scheme, queueDepth, retryEvery int) *Runtime {
	r := &Runtime{Graph: g, Scheme: scheme, Pay: payment.DefaultModel(), speed: scheme.SpeedMps()}
	if queueDepth > 0 {
		r.Queue = match.NewPendingQueue(queueDepth, r.speed)
		r.retryEvery = max(retryEvery, 1)
	}
	return r
}

// SpeedMps is the fleet speed: the scheme's, which taxis move at.
func (r *Runtime) SpeedMps() float64 { return r.speed }

// Now is the simulation clock in seconds.
func (r *Runtime) Now() float64 { return r.now }

// SetClock sets the clock; a trace replay starts it at its first second.
func (r *Runtime) SetClock(now float64) { r.now = now }

// Events is the number of event indices consumed so far.
func (r *Runtime) Events() int64 { return r.events }

// RetryEvery is the queue's retry cadence in ticks, 0 without a queue.
func (r *Runtime) RetryEvery() int { return r.retryEvery }

// Closed reports whether the runtime refuses new work: after Shutdown, a
// fault-plan shutdown, or a WAL failure.
func (r *Runtime) Closed() bool { return r.closed }

// Taxis lists the fleet in ID order. The slice is the runtime's own.
func (r *Runtime) Taxis() []*fleet.Taxi { return r.taxis }

// Taxi returns the taxi with the given ID.
func (r *Runtime) Taxi(id int64) (*fleet.Taxi, bool) {
	if id < 1 || id > int64(len(r.taxis)) {
		return nil, false
	}
	return r.taxis[id-1], true
}

// Requests lists every request in ID order. The slice is the runtime's own.
func (r *Runtime) Requests() []*Request { return r.requests }

// Request returns the request with the given ID.
func (r *Runtime) Request(id int64) (*Request, bool) {
	if id < 1 || id > int64(len(r.requests)) {
		return nil, false
	}
	return r.requests[id-1], true
}

// Shutdown refuses all further work and drains the engine, so no
// in-flight dispatch can commit a plan after it returns.
func (r *Runtime) Shutdown() {
	r.closed = true
	r.Engine.Drain()
}

// begin consumes the next event index and applies the fault plan's
// per-event effects: the router fault epoch and the forced shutdown.
func (r *Runtime) begin() int64 {
	i := r.events
	r.events++
	if r.faultRouter != nil {
		r.faultRouter.SetEpoch(i)
	}
	if r.faults.ShutsDownAt(i) {
		r.closed = true
	}
	return i
}

func logPoint(p geo.Point) replay.Point { return replay.Point{Lat: p.Lat, Lng: p.Lng} }

// AddTaxi registers an empty taxi at the road vertex nearest to at.
func (r *Runtime) AddTaxi(at geo.Point, capacity int) (int64, string) {
	i := r.begin()
	var id int64
	code := Shutdown
	if !r.closed {
		code = OK
		v, _ := r.Spatial.NearestVertex(at)
		id = r.PlaceTaxi(v, capacity).ID
	}
	if r.recording() {
		r.record(replay.Event{I: i, AddTaxi: &replay.AddTaxiEvent{
			At: logPoint(at), Capacity: capacity, Taxi: id, Err: code,
		}})
	}
	return id, code
}

// PlaceTaxi registers an empty taxi at vertex v under the next taxi ID.
func (r *Runtime) PlaceTaxi(v roadnet.VertexID, capacity int) *fleet.Taxi {
	t := fleet.NewTaxi(r.Graph, int64(len(r.taxis))+1, capacity, v)
	r.taxis = append(r.taxis, t)
	r.episodes = append(r.episodes, nil)
	r.Scheme.AddTaxi(t, r.now)
	return t
}

// Ride is one ride call's input, validated: Err is nil when the call can
// be served and otherwise says why it is an invalid request.
type Ride struct {
	Pickup, Dropoff geo.Point
	// Flexibility is ρ as given (0 means the 1.3 default); the log
	// records it verbatim.
	Flexibility float64
	Err         error

	origin, dest roadnet.VertexID
}

// NewRide validates a ride call. It reads only the immutable world, so a
// shell may call it before taking any lock or consuming an event.
func (r *Runtime) NewRide(pickup, dropoff geo.Point, flexibility float64) Ride {
	ride := Ride{Pickup: pickup, Dropoff: dropoff, Flexibility: flexibility}
	if flexibility != 0 && flexibility < 1.05 {
		ride.Err = fmt.Errorf("flexibility %g below minimum 1.05", flexibility)
		return ride
	}
	// The city is never empty, so every point snaps to a vertex.
	ride.origin, _ = r.Spatial.NearestVertex(pickup)
	ride.dest, _ = r.Spatial.NearestVertex(dropoff)
	if ride.origin == ride.dest {
		ride.Err = errors.New("pickup and dropoff snap to the same intersection")
	}
	return ride
}

// Register adds a copy of req to the request table under the next ID.
// IDs are dense, so a caller registering in ascending order of its own
// IDs relabels them monotonically.
func (r *Runtime) Register(req fleet.Request) *Request {
	req.ID = fleet.RequestID(len(r.requests) + 1)
	st := &Request{Req: &req}
	r.requests = append(r.requests, st)
	return st
}

// newRequest registers the ride as the next request, released now.
func (r *Runtime) newRequest(ride Ride, offline bool) *Request {
	rho := ride.Flexibility
	if rho == 0 {
		rho = 1.3
	}
	direct := r.Engine.Router().Cost(ride.origin, ride.dest)
	release := time.Duration(r.now * float64(time.Second))
	return r.Register(fleet.Request{
		ReleaseAt:    release,
		Origin:       ride.origin,
		Dest:         ride.dest,
		Deadline:     release + time.Duration(direct/r.speed*rho*float64(time.Second)),
		DirectMeters: direct,
		Passengers:   1,
		Offline:      offline,
		OriginPt:     r.Graph.Point(ride.origin),
		DestPt:       r.Graph.Point(ride.dest),
	})
}

// RideOutcome is the result of Submit or Hail. ETAs are seconds from now.
type RideOutcome struct {
	Code         string
	Request      int64
	Taxi         int64
	Candidates   int
	DetourMeters float64
	PickupETA    float64
	DropoffETA   float64
	Fare         float64
}

// Submit dispatches an online ride request released now. A request no
// taxi can serve parks in the queue when there is one.
func (r *Runtime) Submit(ctx context.Context, ride Ride) RideOutcome {
	i := r.begin()
	ctx = r.faults.MaybeCancel(ctx, i)
	var out RideOutcome
	switch {
	case r.closed:
		out.Code = Shutdown
	case ride.Err != nil:
		out.Code = InvalidRequest
	default:
		out = r.dispatch(ctx, ride)
	}
	if r.recording() {
		r.record(replay.Event{I: i, Request: &replay.RequestEvent{
			Pickup:      logPoint(ride.Pickup),
			Dropoff:     logPoint(ride.Dropoff),
			Flexibility: ride.Flexibility,
			Out: replay.RequestOutcome{
				Err:             out.Code,
				Request:         out.Request,
				Taxi:            out.Taxi,
				Candidates:      out.Candidates,
				DetourMeters:    out.DetourMeters,
				PickupETANanos:  int64(time.Duration(out.PickupETA * float64(time.Second))),
				DropoffETANanos: int64(time.Duration(out.DropoffETA * float64(time.Second))),
				FareEstimate:    out.Fare,
			},
		}})
	}
	return out
}

func (r *Runtime) dispatch(ctx context.Context, ride Ride) RideOutcome {
	st := r.newRequest(ride, false)
	a, code := r.Dispatch(ctx, st)
	out := RideOutcome{Code: code, Request: int64(st.Req.ID), Candidates: a.Candidates}
	if code != OK {
		return out
	}
	out.Taxi = a.TaxiID
	out.DetourMeters = a.DetourMeters
	out.Fare = r.Pay.Tariff.Fare(st.Req.DirectMeters)
	out.PickupETA = a.PickupAt - r.now
	out.DropoffETA = a.DropoffAt - r.now
	return out
}

// Dispatch offers st's request to the scheme at the current clock and
// parks an online request no taxi took. The code is OK, or why the
// request is not served (yet).
func (r *Runtime) Dispatch(ctx context.Context, st *Request) (dispatch.Outcome, string) {
	a := r.Scheme.OnRequest(ctx, st.Req, r.now)
	st.Candidates = a.Candidates
	switch {
	case a.Served:
		st.Served, st.Taxi, st.AssignAt = true, a.TaxiID, r.now
		return a, OK
	case a.Failed:
		return a, Failed
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return a, Deadline
	case ctx.Err() != nil:
		return a, Canceled
	case st.Req.Offline:
		return a, NoTaxi
	}
	return a, r.park(st)
}

// park pushes an unserved request into the pending queue. A refusal is
// terminal: an already-passed pickup deadline, or a full queue.
func (r *Runtime) park(st *Request) string {
	if r.Queue == nil {
		return NoTaxi
	}
	switch r.Queue.Push(st.Req, r.now) {
	case match.PushAccepted:
		st.Queued = true
		return Queued
	case match.PushRejectedExpired:
		st.Expired = true
		return Expired
	}
	return QueueFull
}

// Roadside inserts st's offline request into the schedule of taxi t,
// which it hailed, when a valid insertion exists (§IV-C2).
func (r *Runtime) Roadside(t *fleet.Taxi, st *Request) bool {
	if !r.Scheme.TryServeOffline(t, st.Req, r.now) {
		return false
	}
	st.Served, st.Taxi, st.AssignAt = true, t.ID, r.now
	return true
}

// Hail serves an offline passenger hailing taxi at the roadside: an
// insertion into that taxi's schedule, or else a dispatch of any taxi
// (§IV-C2).
func (r *Runtime) Hail(ctx context.Context, taxi int64, ride Ride) RideOutcome {
	i := r.begin()
	ctx = r.faults.MaybeCancel(ctx, i)
	out := r.hail(ctx, taxi, ride)
	if r.recording() {
		r.record(replay.Event{I: i, Hail: &replay.HailEvent{
			Taxi:        taxi,
			Pickup:      logPoint(ride.Pickup),
			Dropoff:     logPoint(ride.Dropoff),
			Flexibility: ride.Flexibility,
			Out:         replay.HailOutcome{Err: out.Code, ServedBy: out.Taxi},
		}})
	}
	return out
}

func (r *Runtime) hail(ctx context.Context, id int64, ride Ride) RideOutcome {
	if r.closed {
		return RideOutcome{Code: Shutdown}
	}
	t, ok := r.Taxi(id)
	if !ok {
		return RideOutcome{Code: UnknownTaxi}
	}
	if ride.Err != nil {
		return RideOutcome{Code: InvalidRequest}
	}
	st := r.newRequest(ride, true)
	out := RideOutcome{Request: int64(st.Req.ID)}
	if !r.Roadside(t, st) {
		_, out.Code = r.Dispatch(ctx, st)
	}
	out.Taxi = st.Taxi
	return out
}

// Tick is one movement tick of length d: the queue's expiry sweep and
// retry round run at the tick's starting clock, then every taxi drives
// in ID order — an idle one may then plan a cruise — and the clock moves.
// The returned event carries the rides and queue outcomes; it is
// assembled only when report is set or the tick is being recorded, and is
// nil otherwise.
func (r *Runtime) Tick(d time.Duration, report bool) *replay.TickEvent {
	i := r.begin()
	var tick *replay.TickEvent
	if report || r.recording() {
		tick = &replay.TickEvent{DNanos: int64(d)}
	}
	expired, served := r.RetryRound()
	if tick != nil {
		for _, it := range expired {
			tick.QueueExpired = append(tick.QueueExpired, int64(it.Req.ID))
		}
		for _, s := range served {
			tick.QueueMatched = append(tick.QueueMatched, replay.QueueMatch{
				Request:   int64(s.Item.Req.ID),
				Taxi:      s.Out.TaxiID,
				WaitNanos: nanos(r.now - s.Item.EnqueuedAt),
				Conflict:  s.Conflict,
			})
		}
	}
	dt := d.Seconds()
	r.Move(dt, func(t *fleet.Taxi, _ float64, visits []fleet.EventVisit) {
		if tick != nil {
			for _, v := range visits {
				tick.Rides = append(tick.Rides, replay.Ride{
					Request: int64(v.Event.Req.ID),
					Taxi:    t.ID,
					Pickup:  v.Event.Kind == fleet.Pickup,
					AtNanos: nanos(r.now + v.MetersIntoTick/r.speed),
				})
			}
		}
		r.Scheme.PlanIdle(t, r.now+dt)
	})
	if r.recording() {
		r.record(replay.Event{I: i, Tick: tick})
	}
	r.maybeSnapshot()
	return tick
}

func nanos(seconds float64) int64 { return int64(time.Duration(seconds * float64(time.Second))) }

// A Retry is one parked request a retry round served.
type Retry struct {
	Item     *match.PendingItem
	Out      dispatch.Outcome
	Conflict bool
}

// RetryRound is a tick's first phase: it counts the tick, evicts every
// parked request whose pickup deadline strictly passed and, when the
// retry cadence is due, re-dispatches the rest as one batch in (pickup
// deadline, request ID) order — through the scheme's batch path when it
// has one. It returns the evicted items and the served retries.
func (r *Runtime) RetryRound() (expired []*match.PendingItem, served []Retry) {
	r.ticks++
	if r.Queue == nil {
		return nil, nil
	}
	expired = r.Queue.ExpireBefore(r.now)
	for _, it := range expired {
		st := r.requests[it.Req.ID-1]
		st.Expired, st.QueueRetries = true, it.Retries
		r.Scheme.OnRequestCompleted(it.Req, r.now)
	}
	if r.ticks%int64(r.retryEvery) != 0 {
		return expired, nil
	}
	batch := r.Queue.NextBatch()
	if len(batch) == 0 {
		return expired, nil
	}
	reqs := make([]*fleet.Request, len(batch))
	for i, it := range batch {
		reqs[i] = it.Req
	}
	for _, res := range r.dispatchBatch(reqs) {
		if !res.Out.Served {
			continue
		}
		if it := r.Queue.MarkServed(res.Req.ID, r.now); it != nil {
			st := r.requests[res.Req.ID-1]
			st.Served, st.Taxi, st.AssignAt, st.Candidates = true, res.Out.TaxiID, r.now, res.Out.Candidates
			st.QueueRetries, st.QueueWait = it.Retries, r.now-it.EnqueuedAt
			served = append(served, Retry{Item: it, Out: res.Out, Conflict: res.Conflict})
		}
	}
	return expired, served
}

// dispatchBatch runs a retry batch through the scheme's batch path, or
// else request by request in the batch's order.
func (r *Runtime) dispatchBatch(reqs []*fleet.Request) []dispatch.BatchResult {
	if bd, ok := r.Scheme.(dispatch.BatchDispatcher); ok {
		return bd.OnBatch(reqs, r.now)
	}
	res := make([]dispatch.BatchResult, len(reqs))
	for i, req := range reqs {
		res[i] = dispatch.BatchResult{Req: req, Out: r.Scheme.OnRequest(context.Background(), req, r.now)}
	}
	return res
}

// Move drives every taxi dt seconds along its plan in ID order, firing
// pickups and deliveries (a delivered request leaves the scheme), settles
// each episode whose taxi empties, and lets the scheme re-index the taxi.
// each then sees the taxi's step: its odometer before it moved and the
// events it fired. The clock advances after the last taxi.
func (r *Runtime) Move(dt float64, each func(t *fleet.Taxi, odo float64, visits []fleet.EventVisit)) {
	for i, t := range r.taxis {
		odo, onboard := t.Odometer(), t.OccupiedSeats()
		visits := t.Advance(r.speed * dt)
		for _, v := range visits {
			st := r.requests[v.Event.Req.ID-1]
			at, atOdo := r.now+v.MetersIntoTick/r.speed, odo+v.MetersIntoTick
			if v.Event.Kind == fleet.Pickup {
				st.PickedUp, st.PickupAt, st.PickupOdo = true, at, atOdo
				onboard += st.Req.Passengers
				continue
			}
			st.Delivered, st.DropoffAt, st.DropoffOdo = true, at, atOdo
			r.episodes[i] = append(r.episodes[i], st)
			if onboard -= st.Req.Passengers; onboard == 0 {
				r.settle(i, atOdo)
			}
			r.Scheme.OnRequestCompleted(st.Req, at)
		}
		r.Scheme.OnTaxiAdvanced(t, r.now+dt)
		each(t, odo, visits)
	}
	r.now += dt
}

// settle prices taxi i's finished episode, which ended at odometer end,
// with the payment model (§IV-D, Eqs. 5–8). The episode began at its
// first pickup, the least pickup odometer among its rides.
func (r *Runtime) settle(i int, end float64) {
	rides := r.episodes[i]
	recs := make([]payment.RideRecord, len(rides))
	start := end
	for k, st := range rides {
		start = min(start, st.PickupOdo)
		recs[k] = payment.RideRecord{
			ID:           st.Req.ID,
			DirectMeters: st.Req.DirectMeters,
			SharedMeters: st.DropoffOdo - st.PickupOdo,
			Completed:    true,
		}
	}
	s := r.Pay.Settle(end-start, recs)
	for _, st := range rides {
		st.Fare = s.Fares[st.Req.ID]
	}
	r.episodes[i] = rides[:0]
}

// Settled reports whether st's fare is settled: it was delivered and the
// taxi that carried it has emptied since.
func (r *Runtime) Settled(st *Request) bool {
	return st.Delivered && !slices.Contains(r.episodes[st.Taxi-1], st)
}
