package match

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// Assignment is the outcome of matching one request: the chosen taxi, its
// updated schedule with materialised route legs, the schedule evaluation,
// and the detour cost of Eq. 4.
type Assignment struct {
	Taxi   *fleet.Taxi
	Req    *fleet.Request
	Events []fleet.Event
	Legs   [][]roadnet.VertexID
	Eval   fleet.EvalResult
	// DetourMeters is cost(R'_tj) − cost(R_tj): the increase of the
	// taxi's remaining travel distance caused by serving the request.
	DetourMeters float64
	// Candidates is the size of the candidate taxi set examined
	// (Table III).
	Candidates int
}

// candResult is one candidate taxi's best schedule instance, computed
// independently of every other candidate so the per-candidate work can fan
// out across workers.
type candResult struct {
	taxi   *fleet.Taxi
	events []fleet.Event
	legs   [][]roadnet.VertexID // probabilistic plans materialise eagerly
	eval   fleet.EvalResult
	detour float64
	ok     bool
}

// better orders candidate results deterministically: by detour cost, then
// by taxi ID. The taxi-ID tie-break makes the winner independent of both
// candidate-list order and goroutine completion order, so sequential and
// parallel dispatch provably agree.
func (a *candResult) better(b *candResult) bool {
	if !a.ok || !b.ok {
		return a.ok
	}
	if a.detour != b.detour {
		return a.detour < b.detour
	}
	return a.taxi.ID < b.taxi.ID
}

// lbDeadlineEpsilon pads the lower-bound deadline comparisons against
// floating-point rounding: the oracle's bound is mathematically <= the
// exact leg costs, but is computed through a different float expression,
// so a borderline candidate gets the benefit of the doubt rather than an
// unsound prune. One microsecond of simulated time is far below any
// schedule-relevant scale.
const lbDeadlineEpsilon = 1e-6

// screenCandidateLB applies the landmark lower-bound screen (the oracle's
// reason to exist): using only precomputed offsets, it proves — when it
// returns true — that no insertion of req into t's schedule can meet the
// request's deadlines, so exact schedule evaluation (and every router
// query it would issue) is skipped.
//
// The proof obligation is losslessness. Every insertion candidate routes
// t from params.Start through zero or more events to req.Origin and later
// to req.Dest, over legs costed by exact (or partition-filtered, hence >=
// exact) shortest paths, so by the triangle inequality:
//
//	arrival(pickup)  >= now + (lead + d(start, origin)) / speed
//	arrival(dropoff) >= now + (lead + d(start, origin) + d(origin, dest)) / speed
//
// EstimateLB underestimates d(start, origin), and DirectMeters is exactly
// d(origin, dest) (falling back to the oracle when unset). EvaluateSchedule
// rejects any schedule whose pickup or dropoff arrival strictly exceeds
// its deadline, so a candidate whose lower-bounded arrival already does is
// infeasible in every insertion — pruning it cannot change the winner.
func (e *Engine) screenCandidateLB(req *fleet.Request, params fleet.EvalParams) bool {
	t0 := time.Now()
	defer e.ins.lbEstimateSeconds.ObserveSince(t0)
	e.ins.lbEvaluated.Inc()
	lbPickup := e.oracle.EstimateLB(params.Start, req.Origin)
	minPickup := params.NowSeconds + (params.LeadMeters+lbPickup)/params.SpeedMps
	if minPickup > req.PickupDeadline(params.SpeedMps).Seconds()+lbDeadlineEpsilon {
		e.ins.lbPruned.Inc()
		return true
	}
	direct := req.DirectMeters
	if direct <= 0 {
		direct = e.oracle.EstimateLB(req.Origin, req.Dest)
	}
	if minPickup+direct/params.SpeedMps > req.Deadline.Seconds()+lbDeadlineEpsilon {
		e.ins.lbPruned.Inc()
		return true
	}
	return false
}

// evalCandidate runs the per-candidate half of Alg. 1 for one taxi: it
// enumerates schedule instances (insertion-only, exhaustive reorder, or
// probabilistic) and keeps the feasible one with the minimum travel cost.
// Ties between instances of the same taxi resolve by enumeration order,
// which is deterministic. It only reads engine and taxi state; the caller
// holds the fleet read lock.
func (e *Engine) evalCandidate(t *fleet.Taxi, req *fleet.Request, nowSeconds float64, probabilistic bool) candResult {
	res := candResult{taxi: t}
	params := t.EvalParamsAt(nowSeconds, e.cfg.SpeedMps)
	if e.oracle != nil && e.screenCandidateLB(req, params) {
		return res
	}
	if probabilistic && e.ProbEnabled(t) {
		for _, cand := range fleet.InsertionCandidates(t.Schedule(), req) {
			legs, eval, ok := e.ProbabilisticPlan(cand, t, nowSeconds)
			if !ok {
				continue
			}
			detour := eval.TotalMeters - t.RemainingMeters()
			if !res.ok || detour < res.detour {
				res.events, res.legs, res.eval, res.detour = cand, legs, eval, detour
				res.ok = true
			}
		}
		return res
	}
	sched, eval, ok := fleet.BestInsertion(t.Schedule(), req, e.BasicLegCost, params, false)
	if !ok {
		return res
	}
	res.events, res.eval, res.detour, res.ok = sched, eval, eval.TotalMeters-t.RemainingMeters(), true
	return res
}

// evalCandidates computes every candidate's best schedule instance,
// fanning the work across runtime.GOMAXPROCS(0) workers. Results land in
// candidate-list order regardless of completion order; the deterministic
// reduction happens in Dispatch.
func (e *Engine) evalCandidates(cands []*fleet.Taxi, req *fleet.Request, nowSeconds float64, probabilistic bool) []candResult {
	results := make([]candResult, len(cands))
	roadnet.ParallelDo(len(cands), runtime.GOMAXPROCS(0), func(_, i int) {
		results[i] = e.evalCandidate(cands[i], req, nowSeconds, probabilistic)
	})
	return results
}

// Dispatch implements Alg. 1: search candidate taxis for the request,
// enumerate every schedule insertion per candidate, route each instance
// (basic routing, or probabilistic routing for eligible taxis when
// probabilistic is set), and return the assignment with the minimum
// detour cost, tie-broken by taxi ID. The per-candidate work runs on a
// worker pool sized by GOMAXPROCS; the reduction is a total
// order, so parallel and sequential dispatch return bit-identical
// assignments. ok is false when no taxi can feasibly serve the request.
//
// Dispatch does not mutate any fleet state; apply the returned assignment
// with Commit.
func (e *Engine) Dispatch(req *fleet.Request, nowSeconds float64, probabilistic bool) (Assignment, bool) {
	return e.DispatchContext(context.Background(), req, nowSeconds, probabilistic)
}

// DispatchContext is Dispatch with a caller context: cancellation is
// honoured between stages, and a tracer carried by the context (or the
// engine's configured tracer) samples a span tree over the dispatch
// stages — dispatch.candidates, dispatch.scheduling, dispatch.legbuild.
// Every stage also lands in the mtshare_match_*_seconds histograms.
func (e *Engine) DispatchContext(ctx context.Context, req *fleet.Request, nowSeconds float64, probabilistic bool) (Assignment, bool) {
	if e.tracer != nil && obs.TracerFrom(ctx) == nil {
		ctx = obs.WithTracer(ctx, e.tracer)
	}
	ctx, sp := obs.StartSpan(ctx, "dispatch")
	defer sp.End()
	tDispatch := time.Now()
	defer e.ins.dispatchSeconds.ObserveSince(tDispatch)

	_, spc := obs.StartSpan(ctx, "dispatch.candidates")
	t0 := time.Now()
	cands := e.CandidateTaxis(req, nowSeconds)
	e.ins.candidateSearchSeconds.ObserveSince(t0)
	spc.End()
	e.ins.dispatches.Inc()
	e.ins.candidatesExamined.Add(int64(len(cands)))
	best := Assignment{Req: req, Candidates: len(cands)}
	if len(cands) == 0 || ctx.Err() != nil {
		return best, false
	}

	// The evaluation only reads taxi state, but a concurrent Commit (or
	// ReindexTaxi) may not mutate it mid-evaluation; hold the fleet read
	// lock across the fan-out and the winner's leg materialisation.
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, sps := obs.StartSpan(ctx, "dispatch.scheduling")
	t1 := time.Now()
	results := e.evalCandidates(cands, req, nowSeconds, probabilistic)
	win := -1
	for i := range results {
		if !results[i].ok {
			continue
		}
		if win < 0 || results[i].better(&results[win]) {
			win = i
		}
	}
	e.ins.schedulingSeconds.ObserveSince(t1)
	sps.End()
	if win < 0 {
		return best, false
	}
	w := &results[win]
	best.Taxi, best.Events, best.Legs, best.Eval, best.DetourMeters = w.taxi, w.events, w.legs, w.eval, w.detour

	if best.Legs == nil {
		_, spl := obs.StartSpan(ctx, "dispatch.legbuild")
		ok := e.materializeLegsLocked(&best)
		spl.End()
		if !ok {
			return best, false
		}
	}
	return best, true
}

// materializeLegsLocked fills a winning assignment's basic route legs from
// its schedule events. The caller holds a fleet read lock covering the
// taxi, so NextVertex cannot shift mid-build.
func (e *Engine) materializeLegsLocked(a *Assignment) bool {
	t0 := time.Now()
	defer e.ins.legBuildSeconds.ObserveSince(t0)
	vertices := make([]roadnet.VertexID, len(a.Events))
	for i, ev := range a.Events {
		vertices[i] = ev.Vertex()
	}
	legs, ok := e.BuildBasicLegs(a.Taxi.NextVertex(), vertices)
	if !ok {
		return false
	}
	a.Legs = legs
	return true
}

// Commit applies an assignment: installs the plan on the taxi, refreshes
// its indexes, and registers the request in the mobility clusters. The
// plan installation takes the fleet write lock, so committing while other
// goroutines dispatch is safe; SetPlan re-validates the schedule against
// the taxi's current passengers, so a stale assignment fails cleanly.
func (e *Engine) Commit(a Assignment, nowSeconds float64) error {
	if a.Taxi == nil {
		return fmt.Errorf("match: committing empty assignment")
	}
	t0 := time.Now()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrDispatcherClosed
	}
	err := a.Taxi.SetPlan(a.Events, a.Legs)
	e.mu.Unlock()
	if err != nil {
		return err
	}
	e.ins.assignments.Inc()
	e.ReindexTaxi(a.Taxi, nowSeconds)
	e.OnRequestAssigned(a.Req)
	e.ins.commitSeconds.ObserveSince(t0)
	return nil
}

// TryServeOffline handles a roadside encounter (§IV-C2 end): taxi t has
// met offline request req; the server checks whether req can be validly
// inserted into t's schedule and commits the insertion when possible.
func (e *Engine) TryServeOffline(t *fleet.Taxi, req *fleet.Request, nowSeconds float64) bool {
	e.mu.RLock()
	if t.IdleSeats() < req.Passengers {
		e.mu.RUnlock()
		return false
	}
	params := t.EvalParamsAt(nowSeconds, e.cfg.SpeedMps)
	sched, eval, ok := fleet.BestInsertion(t.Schedule(), req, e.BasicLegCost, params, false)
	if !ok {
		e.mu.RUnlock()
		return false
	}
	vertices := make([]roadnet.VertexID, len(sched))
	for i, ev := range sched {
		vertices[i] = ev.Vertex()
	}
	legs, ok := e.BuildBasicLegs(t.NextVertex(), vertices)
	e.mu.RUnlock()
	if !ok {
		return false
	}
	a := Assignment{Taxi: t, Req: req, Events: sched, Legs: legs, Eval: eval}
	if e.Commit(a, nowSeconds) != nil {
		return false
	}
	e.ins.offlineInsertions.Inc()
	return true
}
