package match

import (
	"math"
	"sort"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/partition"
	"repro/internal/roadnet"
)

// psiFloor keeps vertex weights finite where the transition mass toward
// the destination set is zero (the paper requires ψ_c > 0).
const psiFloor = 0.05

// destinationSet returns P_d for Alg. 4 step 1: the partitions whose
// direction from the given source partition's landmark is similar to the
// taxi's travel direction (cos θ ≥ λ).
func (e *Engine) destinationSet(from partition.ID, taxiVec geo.MobilityVector) []partition.ID {
	var out []partition.ID
	for p := 0; p < e.pt.NumPartitions(); p++ {
		pa := partition.ID(p)
		if pa == from {
			continue
		}
		if geo.CosineSimilarity(e.pt.LandmarkVector(from, pa), taxiVec) >= e.cfg.Lambda {
			out = append(out, pa)
		}
	}
	return out
}

// suitableProb returns π_i: the expected mass of suitable offline requests
// inside partition pi, i.e. the summed transition probability of pi's
// vertices toward the destination set. Using the partition-mean transition
// vector times the member count equals the paper's per-vertex sum.
func (e *Engine) suitableProb(pi partition.ID, dest []partition.ID) float64 {
	tv := e.pt.PartitionTransitionVector(pi)
	var mass float64
	for _, pd := range dest {
		mass += float64(tv[pd])
	}
	return mass * float64(len(e.pt.Vertices(pi)))
}

// psi returns ψ_c for a vertex: its transition mass toward the destination
// set of its own partition (Alg. 4 step 3).
func (e *Engine) psi(v roadnet.VertexID, destByPart map[partition.ID][]partition.ID) float64 {
	p := e.pt.PartitionOf(v)
	tv := e.pt.TransitionVector(v)
	var mass float64
	for _, pd := range destByPart[p] {
		mass += float64(tv[pd])
	}
	return mass
}

// partitionPaths enumerates simple paths from pa to pb over the landmark
// graph restricted to the filtered partition set, scored by accumulated
// π weight, and returns the best few (Alg. 4 step 2's "enumerate all
// possible paths" with a bounded search for large filtered sets).
func (e *Engine) partitionPaths(pa, pb partition.ID, filtered []partition.ID, pi map[partition.ID]float64, limit int) [][]partition.ID {
	inSet := make(map[partition.ID]bool, len(filtered))
	for _, p := range filtered {
		inSet[p] = true
	}
	type scored struct {
		path   []partition.ID
		weight float64
	}
	var found []scored
	const maxFound = 64
	const maxExpansions = 4096
	expansions := 0

	var cur []partition.ID
	onPath := make(map[partition.ID]bool)
	var dfs func(p partition.ID, w float64)
	dfs = func(p partition.ID, w float64) {
		if expansions >= maxExpansions || len(found) >= maxFound {
			return
		}
		expansions++
		cur = append(cur, p)
		onPath[p] = true
		if p == pb {
			path := make([]partition.ID, len(cur))
			copy(path, cur)
			found = append(found, scored{path: path, weight: w})
		} else {
			for _, q := range e.pt.Adjacent(p) {
				if inSet[q] && !onPath[q] {
					dfs(q, w+pi[q])
				}
			}
		}
		delete(onPath, p)
		cur = cur[:len(cur)-1]
	}
	dfs(pa, pi[pa])
	sort.SliceStable(found, func(i, j int) bool { return found[i].weight > found[j].weight })
	if len(found) > limit {
		found = found[:limit]
	}
	out := make([][]partition.ID, len(found))
	for i, f := range found {
		out[i] = f.path
	}
	return out
}

// maxProbAttempts bounds the partition paths probabilistic routing tries
// per leg (Table II: 5).
const maxProbAttempts = 5

// ProbabilisticLeg computes one route leg under probabilistic routing
// (Alg. 4): among the best-scoring partition paths, the first whose
// fine-grained route (vertex-weighted shortest path favouring high-ψ
// vertices) keeps the travel cost within maxMeters. It falls back to the
// basic-routing leg when no candidate qualifies and the basic leg does.
// ok is false when the leg cannot be routed within maxMeters at all.
func (e *Engine) ProbabilisticLeg(u, v roadnet.VertexID, taxiVec geo.MobilityVector, maxMeters float64) ([]roadnet.VertexID, float64, bool) {
	if u == v {
		return []roadnet.VertexID{u}, 0, true
	}
	filtered := e.PartitionFilter(u, v)
	// Step 1: per-partition probability of meeting suitable requests.
	destByPart := make(map[partition.ID][]partition.ID, len(filtered))
	pi := make(map[partition.ID]float64, len(filtered))
	for _, p := range filtered {
		destByPart[p] = e.destinationSet(p, taxiVec)
		pi[p] = e.suitableProb(p, destByPart[p])
	}
	pa := e.pt.PartitionOf(u)
	pb := e.pt.PartitionOf(v)
	// Step 2: candidate partition paths by accumulated probability.
	cands := e.partitionPaths(pa, pb, filtered, pi, maxProbAttempts)
	meanEdge := e.meanEdgeCost()
	for _, hp := range cands {
		allowed := e.allowedSet(hp)
		weight := func(x roadnet.VertexID) float64 {
			return 0.5 * meanEdge / (e.psi(x, destByPart) + psiFloor)
		}
		_, path, ok := e.g.WeightedShortestPath(u, v, func(x roadnet.VertexID) bool {
			return allowed[e.pt.PartitionOf(x)]
		}, weight)
		if !ok {
			continue
		}
		cost, err := e.g.PathCost(path)
		if err != nil {
			continue
		}
		// Step 3 validity: the detoured leg must not blow the caller's
		// deadline-derived budget.
		if cost <= maxMeters {
			return path, cost, true
		}
	}
	// All attempts failed: try the plain basic leg before giving up, so a
	// schedule instance is only discarded when genuinely infeasible.
	path, cost, ok := e.BasicLegPath(u, v)
	if ok && cost <= maxMeters {
		return path, cost, true
	}
	return nil, 0, false
}

// meanEdgeCost returns the graph's mean edge cost, the scale for
// probabilistic vertex weights, computing it on first use.
func (e *Engine) meanEdgeCost() float64 {
	e.meanEdgeOnce.Do(func() {
		var total float64
		for v := 0; v < e.g.NumVertices(); v++ {
			for _, a := range e.g.Out(roadnet.VertexID(v)) {
				total += a.Cost
			}
		}
		e.meanEdge = total / math.Max(1, float64(e.g.NumEdges()))
	})
	return e.meanEdge
}

// ProbabilisticPlan routes a full candidate schedule with probabilistic
// legs (Alg. 1 with flag = true). Each leg's budget is derived from the
// tightest applicable deadline of its terminating event; the completed
// plan is re-validated with EvaluateScheduleWithCosts. ok=false discards
// the schedule instance.
func (e *Engine) ProbabilisticPlan(events []fleet.Event, t *fleet.Taxi, nowSeconds float64) ([][]roadnet.VertexID, fleet.EvalResult, bool) {
	e.ins.probabilisticPlans.Inc()
	vec, hasVec := t.MobilityVector()
	params := t.EvalParamsAt(nowSeconds, e.cfg.SpeedMps)
	legs := make([][]roadnet.VertexID, len(events))
	costs := make([]float64, len(events))

	// Deadline of each event in meters-from-now, and the minimal (basic)
	// chain cost between consecutive event vertices; a leg's detour budget
	// must leave every downstream event reachable by its deadline, or a
	// greedy early detour would eat slack that later dropoffs need.
	deadlineMeters := make([]float64, len(events))
	minLeg := make([]float64, len(events))
	prev := params.Start
	for i, ev := range events {
		dl := ev.Req.Deadline.Seconds()
		if ev.Kind == fleet.Pickup {
			dl = ev.Req.PickupDeadline(e.cfg.SpeedMps).Seconds()
		}
		deadlineMeters[i] = (dl - params.NowSeconds) * e.cfg.SpeedMps
		c, ok := e.BasicLegCost(prev, ev.Vertex())
		if !ok {
			return nil, fleet.EvalResult{}, false
		}
		minLeg[i] = c
		prev = ev.Vertex()
	}

	at := params.Start
	elapsed := params.LeadMeters
	for i, ev := range events {
		// Budget: reaching this event must not pass its deadline, and
		// every later event must stay reachable by its own deadline via
		// at least the minimal chain.
		budget := deadlineMeters[i] - elapsed
		chain := 0.0
		for j := i + 1; j < len(events); j++ {
			chain += minLeg[j]
			if b := deadlineMeters[j] - elapsed - chain; b < budget {
				budget = b
			}
		}
		// Optional probability-versus-detour trade-off: cap the leg's
		// detour at a multiple of its shortest-path cost.
		if f := e.cfg.ProbMaxLegInflation; f > 0 {
			if b := f * minLeg[i]; b < budget {
				budget = b
			}
		}
		if budget < 0 {
			e.ins.probabilisticFailures.Inc()
			return nil, fleet.EvalResult{}, false
		}
		legVec := vec
		if !hasVec {
			// An empty taxi inherits the direction of the leg itself.
			legVec = geo.NewMobilityVector(e.g.Point(at), e.g.Point(ev.Vertex()))
		}
		path, cost, ok := e.ProbabilisticLeg(at, ev.Vertex(), legVec, budget)
		if !ok {
			e.ins.probabilisticFailures.Inc()
			return nil, fleet.EvalResult{}, false
		}
		legs[i] = path
		costs[i] = cost
		elapsed += cost
		at = ev.Vertex()
	}
	eval := fleet.EvaluateScheduleWithCosts(events, costs, params)
	if !eval.Feasible {
		e.ins.probabilisticFailures.Inc()
		return nil, eval, false
	}
	return legs, eval, true
}

// cruiseMeters bounds the length of an idle cruise.
const cruiseMeters = 3000

// CruisePlan plans an eventless probabilistic cruise for an idle taxi with
// spare seats (mT-Share_pro between assignments): it heads toward a nearby
// partition sampled in proportion to its historical origin demand (damped
// by travel distance), routed through high-ψ vertices. Sampling rather
// than picking the argmax spreads the idle fleet over the demand
// distribution — an all-taxis-to-the-hottest-spot policy would empty the
// rest of the city. ok is false when no target qualifies.
func (e *Engine) CruisePlan(t *fleet.Taxi) ([]roadnet.VertexID, bool) {
	cur := t.At()
	curPart := e.pt.PartitionOf(cur)
	type target struct {
		p     partition.ID
		score float64
	}
	var (
		targets []target
		total   float64
	)
	for p := 0; p < e.pt.NumPartitions(); p++ {
		pa := partition.ID(p)
		if pa == curPart {
			continue
		}
		d := e.pt.LandmarkCost(curPart, pa)
		if math.IsInf(d, 1) || d > cruiseMeters {
			continue
		}
		score := e.pt.OriginWeight(pa) / (1 + d/1000)
		if score <= 0 {
			continue
		}
		targets = append(targets, target{p: pa, score: score})
		total += score
	}
	if len(targets) == 0 || total <= 0 {
		return nil, false
	}
	r := e.cruise.next() * total
	pick := targets[len(targets)-1].p
	for _, tg := range targets {
		r -= tg.score
		if r <= 0 {
			pick = tg.p
			break
		}
	}
	dest := e.pt.Landmark(pick)
	if dest == cur {
		return nil, false
	}
	vec := geo.NewMobilityVector(e.g.Point(cur), e.g.Point(dest))
	path, _, ok := e.ProbabilisticLeg(cur, dest, vec, cruiseMeters)
	if !ok || len(path) < 2 {
		return nil, false
	}
	return path, true
}

// probSeatShare is the share of a taxi's seats that must be idle for
// probabilistic routing to apply (the evaluation's half-empty taxi).
const probSeatShare = 0.5

// ProbEnabled reports whether probabilistic routing applies to the taxi:
// at least half its seats must be idle.
func (e *Engine) ProbEnabled(t *fleet.Taxi) bool {
	return float64(t.IdleSeats()) >= probSeatShare*float64(t.Capacity)
}
