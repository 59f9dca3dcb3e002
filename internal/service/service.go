// Package service is the one dispatch runtime under both the mtshare
// library facade and the HTTP server: the world (road network, spatial
// index, partitioning, engine), the taxi and request tables, the clock,
// the pending queue, and the four state-changing operations — AddTaxi,
// Submit, Hail and Tick. Every operation consumes one event index, and
// when a replay log, the write-ahead log or the recovery verifier is
// listening it is recorded through one path (durable.go).
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
	"sync"
	"time"

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
// its own options onto it; neither shell's header is assembled here.
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
	// default γ, clamped to half the city diagonal.
	Match         match.Config
	Probabilistic bool
	// QueueDepth > 0 parks unserved requests for re-dispatch every
	// RetryEveryTicks ticks (at least 1).
	QueueDepth      int
	RetryEveryTicks int
	// Faults is the deterministic fault plan; nil injects none.
	Faults *replay.FaultPlan
	// CrashAtEvent, when positive, fsyncs the WAL and SIGKILLs the process
	// right after appending the event with that index: the deterministic
	// crash point of the kill -9 harness. Ignored without a WAL.
	CrashAtEvent int64
}

// Runtime is the running world. The exported fields are fixed at New.
type Runtime struct {
	Graph   *roadnet.Graph
	Spatial *roadnet.SpatialIndex
	Engine  *match.Engine
	Scheme  *match.Scheme
	Pay     payment.Model
	// Queue is the pending-request queue, nil when Config.QueueDepth is 0.
	Queue *match.PendingQueue
	// Kappa is the effective partition count.
	Kappa int

	retryEvery int
	now        float64
	ticks      int64
	// taxis[i] has ID i+1 and requests[i] has ID i+1: IDs are handed out
	// densely and nothing is ever removed.
	taxis    []*fleet.Taxi
	requests []*Request
	closed   bool

	faults      *replay.FaultPlan
	faultRouter *replay.FaultRouter
	events      int64

	// Recording state (durable.go). rec is the RecordTo log, walEnc the
	// WAL's encoder; verify, when set, intercepts every event instead —
	// recovery re-executes the WAL tail under it. walErr latches the WAL's
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
	Req *fleet.Request
	Lifecycle
}

// Lifecycle is what the API reports about a request: the taxi serving it
// and the terminal or progress flags, with the fare settled on delivery.
type Lifecycle struct {
	Taxi      int64   `json:"taxi_id,omitempty"`
	Served    bool    `json:"served,omitempty"`
	Queued    bool    `json:"queued,omitempty"`
	Expired   bool    `json:"expired,omitempty"`
	PickedUp  bool    `json:"picked_up,omitempty"`
	Delivered bool    `json:"delivered,omitempty"`
	Fare      float64 `json:"fare,omitempty"`
}

// New builds the world: city, spatial index, history, partitioning,
// engine, in that order.
func New(cfg Config) (*Runtime, error) {
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
	r := &Runtime{
		Graph:       g,
		Spatial:     spx,
		Engine:      eng,
		Scheme:      match.NewScheme(eng, cfg.Probabilistic),
		Pay:         payment.DefaultModel(),
		Kappa:       kappa,
		faults:      cfg.Faults,
		faultRouter: faultRouter,
		crashAt:     cfg.CrashAtEvent,
	}
	if cfg.QueueDepth > 0 {
		r.Queue = match.NewPendingQueue(cfg.QueueDepth, eng.Config().SpeedMps).InstrumentWith(eng.Metrics())
		r.retryEvery = max(cfg.RetryEveryTicks, 1)
	}
	return r, nil
}

// Now is the simulation clock in seconds.
func (r *Runtime) Now() float64 { return r.now }

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
		id = int64(len(r.taxis)) + 1
		t := fleet.NewTaxi(r.Graph, id, capacity, v)
		r.taxis = append(r.taxis, t)
		r.Scheme.AddTaxi(t, r.now)
	}
	if r.recording() {
		r.record(replay.Event{I: i, AddTaxi: &replay.AddTaxiEvent{
			At: logPoint(at), Capacity: capacity, Taxi: id, Err: code,
		}})
	}
	return id, code
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

// newRequest registers the ride as the next request, released now.
func (r *Runtime) newRequest(ride Ride, offline bool) *Request {
	rho := ride.Flexibility
	if rho == 0 {
		rho = 1.3
	}
	direct := r.Engine.Router().Cost(ride.origin, ride.dest)
	release := time.Duration(r.now * float64(time.Second))
	st := &Request{Req: &fleet.Request{
		ID:           fleet.RequestID(len(r.requests) + 1),
		ReleaseAt:    release,
		Origin:       ride.origin,
		Dest:         ride.dest,
		Deadline:     release + time.Duration(direct/r.Engine.Config().SpeedMps*rho*float64(time.Second)),
		DirectMeters: direct,
		Passengers:   1,
		Offline:      offline,
		OriginPt:     r.Graph.Point(ride.origin),
		DestPt:       r.Graph.Point(ride.dest),
	}}
	r.requests = append(r.requests, st)
	return st
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
	a, code := r.assign(ctx, st)
	out := RideOutcome{Code: code, Request: int64(st.Req.ID), Candidates: a.Candidates}
	if code == NoTaxi {
		out.Code = r.park(st)
	}
	if out.Code != OK {
		return out
	}
	out.Taxi = a.Taxi.ID
	out.DetourMeters = a.DetourMeters
	out.Fare = r.Pay.Tariff.Fare(st.Req.DirectMeters)
	for k, ev := range a.Events {
		if ev.Req.ID != st.Req.ID {
			continue
		}
		eta := a.Eval.ArrivalSeconds[k] - r.now
		if ev.Kind == fleet.Pickup {
			out.PickupETA = eta
		} else {
			out.DropoffETA = eta
		}
	}
	return out
}

// assign dispatches st's request and commits the winning plan. The code
// is OK, or why no taxi took the request.
func (r *Runtime) assign(ctx context.Context, st *Request) (match.Assignment, string) {
	a, ok := r.Engine.DispatchContext(ctx, st.Req, r.now, r.Scheme.Probabilistic)
	switch {
	case !ok && ctx.Err() != nil:
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return a, Deadline
		}
		return a, Canceled
	case !ok:
		return a, NoTaxi
	case r.Engine.Commit(a, r.now) != nil:
		return a, Failed
	}
	st.Served, st.Taxi = true, a.Taxi.ID
	return a, OK
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
	if r.Engine.TryServeOffline(t, st.Req, r.now) {
		st.Served, st.Taxi = true, id
	} else if _, out.Code = r.assign(ctx, st); out.Code != OK {
		return out
	}
	out.Taxi = st.Taxi
	return out
}

// Tick is one movement tick of length d: the queue's expiry sweep and
// retry round run at the tick's starting clock, then every taxi drives
// in ID order, then the clock moves. The returned event carries the
// rides and queue outcomes; it is assembled only when report is set or
// the tick is being recorded, and is nil otherwise.
func (r *Runtime) Tick(d time.Duration, report bool) *replay.TickEvent {
	i := r.begin()
	r.ticks++
	var tick *replay.TickEvent
	if report || r.recording() {
		tick = &replay.TickEvent{DNanos: int64(d)}
	}
	r.serviceQueue(tick)
	r.move(d.Seconds(), tick)
	if r.recording() {
		r.record(replay.Event{I: i, Tick: tick})
	}
	r.maybeSnapshot()
	return tick
}

// serviceQueue evicts every parked request whose pickup deadline
// strictly passed and, when the retry cadence is due, re-dispatches the
// rest as one batch in (pickup deadline, request ID) order.
func (r *Runtime) serviceQueue(tick *replay.TickEvent) {
	if r.Queue == nil {
		return
	}
	for _, it := range r.Queue.ExpireBefore(r.now) {
		r.requests[it.Req.ID-1].Expired = true
		r.Engine.OnRequestDone(it.Req)
		if tick != nil {
			tick.QueueExpired = append(tick.QueueExpired, int64(it.Req.ID))
		}
	}
	if r.ticks%int64(r.retryEvery) != 0 {
		return
	}
	batch := r.Queue.NextBatch()
	if len(batch) == 0 {
		return
	}
	reqs := make([]*fleet.Request, len(batch))
	enqueuedAt := make(map[fleet.RequestID]float64, len(batch))
	for i, it := range batch {
		reqs[i] = it.Req
		enqueuedAt[it.Req.ID] = it.EnqueuedAt
	}
	for _, o := range r.Engine.DispatchBatch(context.Background(), reqs, r.now, r.Scheme.Probabilistic) {
		if !o.Served {
			continue
		}
		r.Queue.MarkServed(o.Req.ID, r.now)
		st := r.requests[o.Req.ID-1]
		st.Served, st.Taxi = true, o.Assignment.Taxi.ID
		if tick != nil {
			tick.QueueMatched = append(tick.QueueMatched, replay.QueueMatch{
				Request:   int64(o.Req.ID),
				Taxi:      o.Assignment.Taxi.ID,
				WaitNanos: int64(time.Duration((r.now - enqueuedAt[o.Req.ID]) * float64(time.Second))),
				Conflict:  o.Conflict,
			})
		}
	}
}

// move drives every taxi dt seconds along its plan, firing pickups and
// deliveries, then advances the clock.
func (r *Runtime) move(dt float64, tick *replay.TickEvent) {
	speed := r.Engine.Config().SpeedMps
	for _, t := range r.taxis {
		for _, v := range t.Advance(speed * dt) {
			if tick != nil {
				tick.Rides = append(tick.Rides, replay.Ride{
					Request: int64(v.Event.Req.ID),
					Taxi:    t.ID,
					Pickup:  v.Event.Kind == fleet.Pickup,
					AtNanos: int64(time.Duration((r.now + v.MetersIntoTick/speed) * float64(time.Second))),
				})
			}
			st := r.requests[v.Event.Req.ID-1]
			if v.Event.Kind == fleet.Pickup {
				st.PickedUp = true
				continue
			}
			st.Delivered = true
			st.Fare = r.Pay.Tariff.Fare(v.Event.Req.DirectMeters)
			r.Engine.OnRequestDone(v.Event.Req)
		}
		r.Scheme.OnTaxiAdvanced(t, r.now+dt)
		if r.Scheme.Probabilistic {
			r.Scheme.PlanIdle(t, r.now+dt)
		}
	}
	r.now += dt
}
