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
// and the detour cost of Eq. 4. It is also one feasible option of the
// evaluation, where basic-routing legs stay nil until the option wins.
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
func (e *Engine) evalCandidate(t *fleet.Taxi, req *fleet.Request, nowSeconds float64, probabilistic bool) (Assignment, bool) {
	params := t.EvalParamsAt(nowSeconds, e.cfg.SpeedMps)
	if e.oracle != nil && e.screenCandidateLB(req, params) {
		return Assignment{}, false
	}
	if !probabilistic || !e.ProbEnabled(t) {
		return e.insertBasic(t, req, params)
	}
	best, found := Assignment{Taxi: t, Req: req}, false
	for _, cand := range fleet.InsertionCandidates(t.Schedule(), req) {
		legs, eval, ok := e.ProbabilisticPlan(cand, t, nowSeconds)
		if !ok {
			continue
		}
		if detour := eval.TotalMeters - t.RemainingMeters(); !found || detour < best.DetourMeters {
			best.Events, best.Legs, best.Eval, best.DetourMeters = cand, legs, eval, detour
			found = true
		}
	}
	return best, found
}

// insertBasic is evalCandidate's basic-routing half: the cheapest feasible
// insertion of req into t's schedule, its legs left to the winner.
// TryServeOffline calls it directly, without the landmark screen.
func (e *Engine) insertBasic(t *fleet.Taxi, req *fleet.Request, params fleet.EvalParams) (Assignment, bool) {
	sched, eval, ok := fleet.BestInsertion(t.Schedule(), req, e.BasicLegCost, params, false)
	return Assignment{Taxi: t, Req: req, Events: sched, Eval: eval, DetourMeters: eval.TotalMeters - t.RemainingMeters()}, ok
}

// evaluate is Alg. 1 up to the choice of a taxi, shared by every
// dispatcher: candidate search, then every candidate's landmark screen and
// cheapest insertion, fanned across runtime.GOMAXPROCS(0) workers. It
// returns the feasible options in ascending taxi-ID order — the order
// candidate search emits, whatever order the workers finish in — and the
// number of candidates examined. It mutates no fleet state; the caller
// holds the fleet read lock.
func (e *Engine) evaluate(ctx context.Context, req *fleet.Request, nowSeconds float64, probabilistic bool) ([]Assignment, int) {
	_, spc := obs.StartSpan(ctx, "dispatch.candidates")
	t0 := time.Now()
	cands := e.candidatesLocked(req, nowSeconds)
	e.ins.candidateSearchSeconds.ObserveSince(t0)
	spc.End()
	e.ins.dispatches.Inc()
	e.ins.candidatesExamined.Add(int64(len(cands)))
	if len(cands) == 0 || ctx.Err() != nil {
		return nil, len(cands)
	}
	_, sps := obs.StartSpan(ctx, "dispatch.scheduling")
	defer sps.End()
	defer e.ins.schedulingSeconds.ObserveSince(time.Now())
	opts := make([]Assignment, len(cands))
	feasible := make([]bool, len(cands))
	roadnet.ParallelDo(len(cands), runtime.GOMAXPROCS(0), func(_, i int) {
		opts[i], feasible[i] = e.evalCandidate(cands[i], req, nowSeconds, probabilistic)
	})
	out := opts[:0]
	for i := range opts {
		if feasible[i] {
			opts[i].Candidates = len(cands)
			out = append(out, opts[i])
		}
	}
	return out, len(cands)
}

// bestOption is the greedy winner over options in taxi-ID order: minimum
// detour, ties to the lowest taxi ID (strict less keeps the first). The
// order is total, so sequential and parallel evaluation pick the same
// option.
func bestOption(opts []Assignment) (Assignment, bool) {
	best := -1
	for i := range opts {
		if best < 0 || opts[i].DetourMeters < opts[best].DetourMeters {
			best = i
		}
	}
	if best < 0 {
		return Assignment{}, false
	}
	return opts[best], true
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
	defer e.ins.dispatchSeconds.ObserveSince(time.Now())
	// The evaluation only reads taxi state, but a concurrent Commit (or
	// ReindexTaxi) may not mutate it mid-evaluation; hold the fleet read
	// lock from the candidate search to the winner's legs.
	e.mu.RLock()
	defer e.mu.RUnlock()
	opts, n := e.evaluate(ctx, req, nowSeconds, probabilistic)
	a, ok := bestOption(opts)
	if !ok {
		return Assignment{Req: req, Candidates: n}, false
	}
	if a.Legs == nil {
		_, spl := obs.StartSpan(ctx, "dispatch.legbuild")
		a.Legs, ok = e.basicLegs(a.Taxi, a.Events)
		spl.End()
	}
	return a, ok
}

// basicLegs routes a schedule's basic legs from t's next vertex. The
// caller holds the fleet lock, so NextVertex cannot shift mid-build.
func (e *Engine) basicLegs(t *fleet.Taxi, events []fleet.Event) ([][]roadnet.VertexID, bool) {
	defer e.ins.legBuildSeconds.ObserveSince(time.Now())
	return fleet.BuildLegs(e.router, t.NextVertex(), events)
}

// Commit applies an assignment: installs the plan on the taxi, refreshes
// its indexes, and registers the request in the mobility clusters. The
// plan installation takes the fleet write lock, so committing while other
// goroutines dispatch is safe; SetPlan re-validates the schedule against
// the taxi's current passengers, so a stale assignment fails cleanly. An
// assignment without legs gets its basic legs at installation.
func (e *Engine) Commit(a Assignment, nowSeconds float64) error {
	if a.Taxi == nil {
		return fmt.Errorf("match: committing empty assignment")
	}
	t0 := time.Now()
	if err := e.installPlan(a.Taxi, a.Events, a.Legs); err != nil {
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
// inserted into t's schedule and commits the insertion when possible. One
// exact evaluation leaves nothing for the landmark screen to save.
func (e *Engine) TryServeOffline(t *fleet.Taxi, req *fleet.Request, nowSeconds float64) bool {
	e.mu.RLock()
	a, ok := Assignment{}, t.IdleSeats() >= req.Passengers
	if ok {
		a, ok = e.insertBasic(t, req, t.EvalParamsAt(nowSeconds, e.cfg.SpeedMps))
	}
	e.mu.RUnlock()
	if !ok || e.Commit(a, nowSeconds) != nil {
		return false
	}
	e.ins.offlineInsertions.Inc()
	return true
}
