package fleet

import (
	"math"

	"repro/internal/roadnet"
)

// LegCoster returns the travel cost in meters of a route leg between two
// vertices, and whether a route exists. mT-Share plugs in its
// partition-filtered routing; baselines use plain shortest paths.
type LegCoster func(u, v roadnet.VertexID) (float64, bool)

// EvalParams carries the context needed to evaluate a candidate schedule.
type EvalParams struct {
	// NowSeconds is the current simulation time.
	NowSeconds float64
	// SpeedMps is the constant taxi speed.
	SpeedMps float64
	// Start is the vertex the evaluation departs from (the taxi's next
	// vertex when mid-edge).
	Start roadnet.VertexID
	// LeadMeters is the distance still to travel before reaching Start.
	LeadMeters float64
	// Capacity is the taxi's seat capacity.
	Capacity int
	// OnboardSeats is the number of seats already occupied when the
	// schedule begins.
	OnboardSeats int
}

// EvalResult reports the outcome of evaluating a candidate schedule.
type EvalResult struct {
	// Feasible is true when every leg is routable, every pickup meets its
	// pickup deadline, every dropoff meets its delivery deadline, and
	// occupancy never exceeds capacity.
	Feasible bool
	// TotalMeters is the travel distance from the evaluation start
	// through every event (including LeadMeters). Valid only when all
	// legs were routable; when infeasible due to deadline/capacity it
	// still holds the accumulated distance up to the failure.
	TotalMeters float64
	// ArrivalSeconds holds the absolute arrival time at each event.
	ArrivalSeconds []float64
}

// EvaluateSchedule walks a candidate event sequence, accumulating travel
// cost leg by leg and checking the paper's two constraint families
// (§III-C): delivery deadlines (pickups additionally respect the derived
// pickup deadline) and seat capacity. It is the shared core of Alg. 1's
// schedule enumeration for every scheme in the repository.
//
// Deadline-boundary convention (shared with match.Engine's search-radius
// gate): deadlines are inclusive — arrival exactly at the pickup or
// delivery deadline is feasible; only t strictly past the deadline fails.
func EvaluateSchedule(events []Event, cost LegCoster, p EvalParams) EvalResult {
	res := EvalResult{ArrivalSeconds: make([]float64, len(events))}
	if p.SpeedMps <= 0 {
		return res
	}
	at := p.Start
	meters := p.LeadMeters
	seats := p.OnboardSeats
	for i, e := range events {
		leg, ok := cost(at, e.Vertex())
		if !ok || math.IsInf(leg, 1) {
			res.TotalMeters = meters
			return res
		}
		meters += leg
		at = e.Vertex()
		t := p.NowSeconds + meters/p.SpeedMps
		res.ArrivalSeconds[i] = t
		switch e.Kind {
		case Pickup:
			if t > e.Req.PickupDeadline(p.SpeedMps).Seconds() {
				res.TotalMeters = meters
				return res
			}
			seats += e.Req.Passengers
			if seats > p.Capacity {
				res.TotalMeters = meters
				return res
			}
		case Dropoff:
			if t > e.Req.Deadline.Seconds() {
				res.TotalMeters = meters
				return res
			}
			seats -= e.Req.Passengers
		}
	}
	res.Feasible = true
	res.TotalMeters = meters
	return res
}

// EvaluateScheduleWithCosts is EvaluateSchedule for callers that already
// computed each leg's travel cost (probabilistic routing materialises legs
// up front). legMeters[i] is the cost of the leg ending at events[i].
func EvaluateScheduleWithCosts(events []Event, legMeters []float64, p EvalParams) EvalResult {
	// Validate the pairing before any evaluation state is set up: a
	// mismatched legMeters cannot be walked meaningfully, so the result is
	// infeasible with zero-filled arrival times.
	if len(legMeters) != len(events) {
		return EvalResult{ArrivalSeconds: make([]float64, len(events))}
	}
	i := 0
	coster := func(u, v roadnet.VertexID) (float64, bool) {
		if i >= len(legMeters) {
			return 0, false
		}
		c := legMeters[i]
		i++
		return c, true
	}
	return EvaluateSchedule(events, coster, p)
}

// BestInsertion enumerates all insertions of req into schedule (Alg. 1's
// inner loop for one taxi), evaluates each with EvaluateSchedule, and
// returns the feasible candidate with the minimum total travel cost. ok is
// false when no feasible insertion exists. stopAtFirst makes it return the
// first feasible candidate instead of the best (T-Share's behaviour).
func BestInsertion(schedule []Event, req *Request, cost LegCoster, p EvalParams, stopAtFirst bool) (best []Event, bestEval EvalResult, ok bool) {
	for _, cand := range InsertionCandidates(schedule, req) {
		ev := EvaluateSchedule(cand, cost, p)
		if !ev.Feasible {
			continue
		}
		if stopAtFirst {
			return cand, ev, true
		}
		if !ok || ev.TotalMeters < bestEval.TotalMeters {
			best, bestEval, ok = cand, ev, true
		}
	}
	return best, bestEval, ok
}

// BuildLegs routes a schedule's legs over r from start: legs[i] ends at
// events[i].Vertex(). A leg that starts at its event's vertex is that
// vertex alone, asked of no router. ok is false when a leg is unroutable.
func BuildLegs(r roadnet.PathRouter, start roadnet.VertexID, events []Event) (legs [][]roadnet.VertexID, ok bool) {
	legs = make([][]roadnet.VertexID, len(events))
	at := start
	for i, ev := range events {
		v := ev.Vertex()
		if at == v {
			legs[i] = []roadnet.VertexID{v}
		} else if legs[i] = r.Path(at, v); legs[i] == nil {
			return nil, false
		}
		at = v
	}
	return legs, true
}
