// Package sim is the discrete-event evaluation substrate of the
// reproduction: it feeds a day's ride requests, at their release times,
// to the dispatch runtime (internal/service) driving a pluggable scheme,
// and keeps what is its own — placing the fleet, shift changes, roadside
// encounters with offline requests, their expiry, throttled idle
// cruising, and the metrics reported in the paper's §V (served requests,
// response time, detour time, waiting time, candidate-set size, fares and
// driver income), read from the runtime's per-request ledger.
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
	"repro/internal/replay"
	"repro/internal/roadnet"
	"repro/internal/service"
)

// Params configures a simulation run; the zero value is the paper's
// setting. Taxis drive at the scheme's speed.
type Params struct {
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

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := (replay.Policy{QueueDepth: p.QueueDepth, RetryEveryTicks: p.RetryEveryTicks}).Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return p.ShiftChange.Validate()
}

// idlePlanEverySeconds throttles idle-cruise planning per taxi.
const idlePlanEverySeconds = 60

// Engine drives one simulation run. It is single-goroutine.
type Engine struct {
	params Params
	rt     *service.Runtime

	lastIdle map[int64]float64

	taxiGrid *index.LocationGrid

	// respNanos[i] is the wall-clock time of the dispatch call that served
	// or last refused the runtime's request i+1: the paper's response time,
	// not an outcome, so it stays out of the ledger.
	respNanos []int64
	pending   []*service.Request // offline, released, not yet served/expired

	// Aggregates.
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
		rt:       service.Over(g, scheme, params.QueueDepth, params.RetryEveryTicks),
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

// tickSeconds is the simulation step.
const tickSeconds = 5

// maxDrainSeconds bounds the drain phase after the last release that lets
// assigned passengers finish their rides.
const maxDrainSeconds = 7200

// Run replays the given requests (online and offline mixed; they carry
// the Offline flag) from startSeconds until all released requests are
// resolved and all taxis are empty, bounded by maxDrainSeconds past the
// last release. The runtime dispatches and records a copy of each
// request, relabelled in ascending ID order.
func (e *Engine) Run(requests []*fleet.Request, startSeconds float64) *Metrics {
	byID := make([]int, len(requests))
	for i := range byID {
		byID[i] = i
	}
	sort.SliceStable(byID, func(a, b int) bool { return requests[byID[a]].ID < requests[byID[b]].ID })
	reqs := make([]*service.Request, len(requests))
	for _, i := range byID {
		reqs[i] = e.rt.Register(*requests[i])
	}
	e.respNanos = make([]int64, len(e.rt.Requests()))
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
		e.rt.RetryRound()
		// 1. Release requests due by now.
		for next < len(reqs) && reqs[next].Req.ReleaseAt.Seconds() <= now {
			st := reqs[next]
			next++
			if st.Req.Offline {
				e.pending = append(e.pending, st)
				continue
			}
			e.dispatch(st)
		}
		// 2. Move taxis, firing events.
		e.rt.Move(tickSeconds, e.moved)
		now = e.rt.Now()
		// 3. Roadside encounters with offline requests.
		e.handleEncounters()
		// 4. Expire hopeless offline requests.
		e.expirePending(now)
		// 5. Idle cruising (probabilistic variants).
		e.planIdle(now)

		if next >= len(reqs) && now > lastRelease {
			if (e.allTaxisIdle() && (e.rt.Queue == nil || e.rt.Queue.Len() == 0)) || now > lastRelease+maxDrainSeconds {
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

func (e *Engine) allTaxisIdle() bool {
	for _, t := range e.rt.Taxis() {
		if !t.Empty() {
			return false
		}
	}
	return true
}

// dispatch offers a request to the runtime, times the call, and reports
// whether a taxi took it.
func (e *Engine) dispatch(st *service.Request) bool {
	t0 := time.Now()
	_, code := e.rt.Dispatch(context.Background(), st)
	e.respNanos[st.Req.ID-1] = time.Since(t0).Nanoseconds()
	return code == service.OK
}

// moved folds one taxi's movement step into the passenger distance, the
// occupancy and the encounter grid.
func (e *Engine) moved(t *fleet.Taxi, startOdo float64, visits []fleet.EventVisit) {
	for _, v := range visits {
		if v.Event.Kind == fleet.Dropoff {
			st, _ := e.rt.Request(int64(v.Event.Req.ID))
			e.passengerMeters += st.DropoffOdo - st.PickupOdo
		}
	}
	if t.OccupiedSeats() > 0 {
		e.occupiedSecs += tickSeconds
	}
	if t.Odometer() != startOdo || len(visits) > 0 {
		e.taxiGrid.Update(t.ID, t.Point())
	}
}

// handleEncounters lets taxis passing a hailing offline passenger pick
// them up (§IV-C2's roadside interaction, and the adjusted baseline
// behaviour of §V-A2).
func (e *Engine) handleEncounters() {
	if len(e.pending) == 0 {
		return
	}
	remaining := e.pending[:0]
	for _, st := range e.pending {
		if !e.encounter(st) {
			remaining = append(remaining, st)
		}
	}
	e.pending = remaining
}

// encounterRadiusMeters is how close a taxi must pass to a hailing
// offline passenger to notice them.
const encounterRadiusMeters = 80

// encounter offers a hailing passenger to every taxi passing by with
// enough free seats, and reports whether one of them got them served.
func (e *Engine) encounter(st *service.Request) bool {
	// When the hailed taxi cannot fit the passenger, mT-Share's server
	// dispatches another taxi. A failed dispatch changes nothing, so it
	// runs at most once per pass.
	mayDispatch := e.rt.Scheme.SupportsOfflineDispatch()
	for _, id := range e.taxiGrid.Near(st.Req.OriginPt, encounterRadiusMeters) {
		t, ok := e.rt.Taxi(id)
		if !ok || t.IdleSeats() < st.Req.Passengers {
			continue
		}
		t0 := time.Now()
		if e.rt.Roadside(t, st) {
			e.respNanos[st.Req.ID-1] = time.Since(t0).Nanoseconds()
			return true
		}
		if mayDispatch {
			mayDispatch = false
			if e.dispatch(st) {
				return true
			}
		}
	}
	return false
}

// expirePending drops offline requests whose pickup deadline passed.
func (e *Engine) expirePending(now float64) {
	remaining := e.pending[:0]
	for _, st := range e.pending {
		if st.Req.PickupDeadline(e.rt.SpeedMps()).Seconds() < now {
			st.Expired = true
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
