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
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/payment"
	"repro/internal/roadnet"
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

	// ShiftChange models a driver-shift changeover mid-run: at AtSeconds
	// a seeded Fraction of the then-current fleet goes off shift — each
	// cohort taxi finishes its committed schedule, then stops accepting
	// passengers (its capacity drops to zero) — and LagSeconds later the
	// same number of fresh taxis come on shift at seeded vertices. The
	// zero value disables the changeover.
	ShiftChange ShiftChangeConfig
}

// ShiftChangeConfig parameterizes the mid-run driver-shift changeover.
// Everything is seeded and applied at tick boundaries in taxi-ID order,
// so a shift run is as deterministic as a plain one.
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
	case p.QueueDepth < 0:
		return fmt.Errorf("sim: QueueDepth negative")
	case p.RetryEveryTicks < 0:
		return fmt.Errorf("sim: RetryEveryTicks negative")
	case p.RetryEveryTicks > 0 && p.QueueDepth == 0:
		return fmt.Errorf("sim: RetryEveryTicks requires QueueDepth > 0")
	}
	return p.ShiftChange.Validate()
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
}

// NewEngine creates a simulation over the graph with the given scheme.
func NewEngine(g *roadnet.Graph, scheme dispatch.Scheme, params Params) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	min, max := g.Bounds()
	e := &Engine{
		params:   params,
		g:        g,
		scheme:   scheme,
		episodes: make(map[int64]*episode),
		lastIdle: make(map[int64]float64),
		taxiGrid: index.NewLocationGrid(min, max, 300),
		records:  make(map[fleet.RequestID]*RequestRecord),
	}
	if params.QueueDepth > 0 {
		e.queue = match.NewPendingQueue(params.QueueDepth, params.SpeedMps)
		e.retryEvery = params.RetryEveryTicks
		if e.retryEvery == 0 {
			e.retryEvery = 1
		}
	}
	return e, nil
}

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
		// 0a. Shift changeover: retire emptied off-shift taxis, bring the
		// replacement cohort on before this tick's dispatches see them.
		e.serviceShift(now)
		// 0b. Pending-queue maintenance: evict requests whose pickup
		// deadline passed, then — when the retry interval is due —
		// re-dispatch the parked batch before this tick's releases.
		e.serviceQueue(now)
		// 1. Release requests due by now.
		for next < len(reqs) && reqs[next].ReleaseAt.Seconds() <= now {
			r := reqs[next]
			next++
			if r.Offline {
				e.pending = append(e.pending, r)
				continue
			}
			e.dispatchOnline(r, now, false)
		}
		// 2. Move taxis, firing events.
		e.advanceTaxis(now, dt)
		// 3. Roadside encounters with offline requests.
		e.handleEncounters(now + dt)
		// 4. Expire hopeless offline requests.
		e.expirePending(now + dt)
		// 5. Idle cruising (probabilistic variants).
		e.planIdle(now + dt)

		now += dt
		if next >= len(reqs) && now > lastRelease {
			if (e.allTaxisIdle() && e.queueLen() == 0) || now > lastRelease+e.params.MaxDrainSeconds {
				break
			}
		}
	}
	e.ExecutionSecs = time.Since(e.wallStart).Seconds()
	e.FinalSimSeconds = now
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
// time and one seeded rng, so runs are bit-identical.
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
	}
	if e.shiftPicked {
		for _, t := range e.shiftCohort {
			if t.Capacity > 0 && t.Empty() {
				t.Capacity = 0
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
// scheme.
func (e *Engine) serviceQueue(now float64) {
	if e.queue == nil {
		return
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
	}
	if e.tickCount%int64(e.retryEvery) != 0 {
		return
	}
	batch := e.queue.NextBatch()
	if len(batch) == 0 {
		return
	}
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
		if rec := e.records[r.Req.ID]; rec != nil {
			rec.Served = true
			rec.ServedFromQueue = true
			rec.TaxiID = r.Out.TaxiID
			rec.AssignSeconds = now
			rec.QueueRetries = it.Retries
			rec.QueueWaitSeconds = now - it.EnqueuedAt
			rec.Candidates = r.Out.Candidates
		}
	}
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
	rec.Candidates = out.Candidates
	if !out.Served {
		// Online requests park in the pending queue for batched
		// re-dispatch instead of failing terminally; a full queue is an
		// explicit backpressure rejection, and a request whose pickup
		// deadline already passed is a terminal expiry, not backpressure.
		if !r.Offline && e.queue != nil {
			switch e.queue.Push(r, now) {
			case match.PushAccepted:
				rec.Queued = true
			case match.PushRejectedExpired:
				rec.Expired = true
			}
		}
		return false
	}
	rec.Served = true
	rec.ServedOffline = offline
	rec.TaxiID = out.TaxiID
	rec.AssignSeconds = now
	return true
}

// advanceTaxis moves every taxi by speed·dt in fleet order, processing
// fired events in order and keeping odometers, episodes, and the taxi grid
// current.
func (e *Engine) advanceTaxis(now, dt float64) {
	distance := e.params.SpeedMps * dt
	for _, t := range e.taxis {
		startOdo := t.Odometer()
		onboard := t.OccupiedSeats()
		visits := t.Advance(distance)
		for _, v := range visits {
			eventOdo := startOdo + v.MetersIntoTick
			eventTime := now + v.MetersIntoTick/e.params.SpeedMps
			e.processEvent(t, v.Event, eventOdo, eventTime, &onboard)
		}
		if t.OccupiedSeats() > 0 {
			e.occupiedSecs += dt
		}
		if t.Odometer() != startOdo || len(visits) > 0 {
			e.taxiGrid.Update(t.ID, t.Point())
		}
		e.scheme.OnTaxiAdvanced(t, now+dt)
	}
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
