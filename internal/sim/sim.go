// Package sim is the discrete-event evaluation substrate of the
// reproduction: it feeds a day's ride requests, at their release times,
// to the dispatch runtime (internal/service) driving a pluggable scheme,
// and keeps what is its own — placing the fleet, shift changes, roadside
// encounters with offline requests, their expiry, throttled idle
// cruising, fare settlement with the payment model, and the metrics
// reported in the paper's §V (served requests, response time, detour
// time, waiting time, candidate-set size, fares and driver income).
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/payment"
	"repro/internal/replay"
	"repro/internal/roadnet"
	"repro/internal/service"
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
	// Payment is the settlement model; zero value disables settlement.
	Payment payment.Model
	// SettlePayments enables fare settlement.
	SettlePayments bool

	// QueueDepth and RetryEveryTicks are the queue half of
	// replay.Policy (see there); offline requests never park. The rest of
	// the policy belongs to the scheme the caller builds.
	QueueDepth      int
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
	}
	if err := (replay.Policy{QueueDepth: p.QueueDepth, RetryEveryTicks: p.RetryEveryTicks}).Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
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

// idlePlanEverySeconds throttles idle-cruise planning per taxi.
const idlePlanEverySeconds = 60

// episode tracks one continuous shared ride of a taxi (first pickup from
// empty to the dropoff that empties it) for settlement.
type episode struct {
	startOdo float64
	rides    []payment.RideRecord
}

// Engine drives one simulation run. It is single-goroutine.
type Engine struct {
	params Params
	rt     *service.Runtime

	episodes map[int64]*episode
	lastIdle map[int64]float64

	taxiGrid *index.LocationGrid

	// records[i] tracks the runtime's request i+1.
	records []*RequestRecord
	pending []*service.Request // offline, released, not yet served/expired

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
	return &Engine{
		params:   params,
		rt:       service.Over(g, scheme, params.SpeedMps, params.QueueDepth, params.RetryEveryTicks),
		episodes: make(map[int64]*episode),
		lastIdle: make(map[int64]float64),
		taxiGrid: index.NewLocationGrid(min, max, 300),
	}, nil
}

// PlaceTaxis creates n taxis with the given capacity at deterministic
// pseudo-random vertices and registers them with the scheme.
func (e *Engine) PlaceTaxis(n, capacity int, seed int64, startSeconds float64) {
	e.rt.SetClock(startSeconds)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		e.place(roadnet.VertexID(rng.Intn(e.rt.Graph.NumVertices())), capacity)
	}
}

func (e *Engine) place(v roadnet.VertexID, capacity int) {
	t := e.rt.PlaceTaxi(v, capacity)
	e.taxiGrid.Update(t.ID, t.Point())
}

// Taxis returns the simulated fleet.
func (e *Engine) Taxis() []*fleet.Taxi { return e.rt.Taxis() }

// Run replays the given requests (online and offline mixed; they carry
// the Offline flag) from startSeconds until all released requests are
// resolved and all taxis are empty, bounded by MaxDrainSeconds past the
// last release. The runtime dispatches a copy of each request, relabelled
// in ascending ID order; the records point at the caller's requests.
func (e *Engine) Run(requests []*fleet.Request, startSeconds float64) *Metrics {
	byID := make([]int, len(requests))
	for i := range byID {
		byID[i] = i
	}
	sort.SliceStable(byID, func(a, b int) bool { return requests[byID[a]].ID < requests[byID[b]].ID })
	reqs := make([]*service.Request, len(requests))
	for _, i := range byID {
		reqs[i] = e.rt.Register(*requests[i])
		e.records = append(e.records, &RequestRecord{Req: requests[i]})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Req.ReleaseAt < reqs[j].Req.ReleaseAt })
	var lastRelease float64 = startSeconds
	if len(reqs) > 0 {
		lastRelease = reqs[len(reqs)-1].Req.ReleaseAt.Seconds()
	}
	e.wallStart = time.Now()
	e.startSeconds = startSeconds
	e.rt.SetClock(startSeconds)
	next := 0
	for {
		now := e.rt.Now()
		// 0a. Shift changeover: retire emptied off-shift taxis, bring the
		// replacement cohort on before this tick's dispatches see them.
		e.serviceShift(now)
		// 0b. The runtime's retry round: evict parked requests whose pickup
		// deadline passed, then — when due — re-dispatch the rest before
		// this tick's releases.
		e.retryRound(now)
		// 1. Release requests due by now.
		for next < len(reqs) && reqs[next].Req.ReleaseAt.Seconds() <= now {
			st := reqs[next]
			next++
			if st.Req.Offline {
				e.pending = append(e.pending, st)
				continue
			}
			e.dispatch(st, false)
		}
		// 2. Move taxis, firing events.
		e.rt.Move(e.params.TickSeconds, e.moved)
		now = e.rt.Now()
		// 3. Roadside encounters with offline requests.
		e.handleEncounters(now)
		// 4. Expire hopeless offline requests.
		e.expirePending(now)
		// 5. Idle cruising (probabilistic variants).
		e.planIdle(now)

		if next >= len(reqs) && now > lastRelease {
			if (e.allTaxisIdle() && (e.rt.Queue == nil || e.rt.Queue.Len() == 0)) || now > lastRelease+e.params.MaxDrainSeconds {
				break
			}
		}
	}
	e.ExecutionSecs = time.Since(e.wallStart).Seconds()
	e.FinalSimSeconds = e.rt.Now()
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
// under the next taxi ID. Everything is driven by simulated time and one
// seeded rng, so runs are bit-identical.
func (e *Engine) serviceShift(now float64) {
	sc := e.params.ShiftChange
	if !sc.Enabled() {
		return
	}
	taxis := e.rt.Taxis()
	if !e.shiftPicked && now >= sc.AtSeconds {
		rng := rand.New(rand.NewSource(sc.Seed))
		k := int(math.Round(sc.Fraction * float64(len(taxis))))
		if k < 1 {
			k = 1
		}
		picked := rng.Perm(len(taxis))[:k]
		sort.Ints(picked)
		for _, i := range picked {
			e.shiftCohort = append(e.shiftCohort, taxis[i])
			e.shiftCaps = append(e.shiftCaps, taxis[i].Capacity)
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
		for _, capacity := range e.shiftCaps {
			e.place(roadnet.VertexID(rng.Intn(e.rt.Graph.NumVertices())), capacity)
		}
		e.shiftReplaced = true
	}
}

// retryRound runs the runtime's retry round and records its outcomes.
func (e *Engine) retryRound(now float64) {
	expired, served := e.rt.RetryRound()
	for _, it := range expired {
		rec := e.records[it.Req.ID-1]
		rec.Expired = true
		rec.QueueRetries = it.Retries
	}
	for _, s := range served {
		rec := e.records[s.Item.Req.ID-1]
		rec.Served = true
		rec.ServedFromQueue = true
		rec.TaxiID = s.Out.TaxiID
		rec.AssignSeconds = now
		rec.QueueRetries = s.Item.Retries
		rec.QueueWaitSeconds = now - s.Item.EnqueuedAt
		rec.Candidates = s.Out.Candidates
	}
}

func (e *Engine) allTaxisIdle() bool {
	for _, t := range e.rt.Taxis() {
		if !t.Empty() {
			return false
		}
	}
	return true
}

// dispatch offers a released request to the runtime and records the
// outcome. offline marks requests that reached the dispatcher through the
// roadside-encounter fallback.
func (e *Engine) dispatch(st *service.Request, offline bool) bool {
	rec := e.records[st.Req.ID-1]
	t0 := time.Now()
	out, code := e.rt.Dispatch(context.Background(), st)
	rec.ResponseNanos = time.Since(t0).Nanoseconds()
	rec.Candidates = out.Candidates
	switch code {
	case service.OK:
		rec.Served = true
		rec.ServedOffline = offline
		rec.TaxiID = out.TaxiID
		rec.AssignSeconds = e.rt.Now()
		return true
	case service.Queued:
		rec.Queued = true
	case service.Expired:
		rec.Expired = true
	}
	return false
}

// moved folds one taxi's movement step into the records, odometers,
// episodes, occupancy and the encounter grid.
func (e *Engine) moved(t *fleet.Taxi, startOdo float64, onboard int, visits []fleet.EventVisit) {
	for _, v := range visits {
		eventOdo := startOdo + v.MetersIntoTick
		eventTime := e.rt.Now() + v.MetersIntoTick/e.params.SpeedMps
		e.processEvent(t, v.Event, eventOdo, eventTime, &onboard)
	}
	if t.OccupiedSeats() > 0 {
		e.occupiedSecs += e.params.TickSeconds
	}
	if t.Odometer() != startOdo || len(visits) > 0 {
		e.taxiGrid.Update(t.ID, t.Point())
	}
}

// processEvent updates per-request records and per-taxi episodes for one
// pickup or dropoff.
func (e *Engine) processEvent(t *fleet.Taxi, ev fleet.Event, odo, when float64, onboard *int) {
	rec := e.records[ev.Req.ID-1]
	switch ev.Kind {
	case fleet.Pickup:
		rec.PickupSeconds = when
		rec.pickupOdo = odo
		if *onboard == 0 {
			e.episodes[t.ID] = &episode{startOdo: odo}
		}
		*onboard += ev.Req.Passengers
	case fleet.Dropoff:
		*onboard -= ev.Req.Passengers
		rec.DropoffSeconds = when
		rec.dropoffOdo = odo
		rec.Delivered = true
		e.passengerMeters += rec.SharedMeters()
		ep := e.episodes[t.ID]
		if ep == nil {
			return
		}
		ep.rides = append(ep.rides, payment.RideRecord{
			ID:           ev.Req.ID,
			DirectMeters: ev.Req.DirectMeters,
			SharedMeters: rec.SharedMeters(),
			Completed:    true,
		})
		if *onboard == 0 {
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
		rec := e.records[ride.ID-1]
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
	for _, st := range e.pending {
		if !e.encounter(st, now) {
			remaining = append(remaining, st)
		}
	}
	e.pending = remaining
}

// encounter offers a hailing passenger to every taxi passing by with
// enough free seats, and reports whether one of them got them served.
func (e *Engine) encounter(st *service.Request, now float64) bool {
	rec := e.records[st.Req.ID-1]
	for _, id := range e.taxiGrid.Near(st.Req.OriginPt, e.params.EncounterRadiusMeters) {
		t, ok := e.rt.Taxi(id)
		if !ok || t.IdleSeats() < st.Req.Passengers {
			continue
		}
		t0 := time.Now()
		if e.rt.Roadside(t, st) {
			rec.ResponseNanos = time.Since(t0).Nanoseconds()
			rec.Served = true
			rec.ServedOffline = true
			rec.TaxiID = t.ID
			rec.AssignSeconds = now
			return true
		}
		// The driver reported the hailing passenger but could not fit
		// them; mT-Share's server dispatches another taxi.
		if e.rt.Scheme.SupportsOfflineDispatch() && e.dispatch(st, true) {
			return true
		}
	}
	return false
}

// expirePending drops offline requests whose pickup deadline passed.
func (e *Engine) expirePending(now float64) {
	remaining := e.pending[:0]
	for _, st := range e.pending {
		if st.Req.PickupDeadline(e.params.SpeedMps).Seconds() < now {
			e.records[st.Req.ID-1].Expired = true
			continue
		}
		remaining = append(remaining, st)
	}
	e.pending = remaining
}

// planIdle offers parked, empty taxis to the scheme's idle planner.
func (e *Engine) planIdle(now float64) {
	for _, t := range e.rt.Taxis() {
		if !t.Empty() || len(t.Route()) > 1 {
			continue
		}
		if now-e.lastIdle[t.ID] < idlePlanEverySeconds {
			continue
		}
		e.lastIdle[t.ID] = now
		e.rt.Scheme.PlanIdle(t, now)
	}
}
