package match

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/fleet"
)

// This file implements the global batch-assignment round (ROADMAP item 4):
// instead of committing each pending request's individually-best taxi in
// deadline order — greedy, order-sensitive under contention — the round
// builds the full bipartite cost graph of feasible (request, taxi) options
// and solves a min-cost maximum-cardinality assignment over it, so a
// request can yield its first-choice taxi to a tighter competitor and take
// its second choice instead of falling back to the queue. Enumeration goes
// through the ordinary dispatch pipeline (candidate rules 1-3, landmark
// lower-bound screening, insertion scheduling), the solve is pure
// arithmetic with (cost, request, taxi) tie-breaks, and the commits reuse
// the two-phase batch protocol — the whole round stays bit-identical at
// every GOMAXPROCS.

// batchAssignMinSize is the smallest batch worth a global solve: a
// singleton batch has nothing to contend with, so the greedy order is
// already globally optimal.
const batchAssignMinSize = 2

// unmatchedCost prices a request's virtual "goes unserved" column in the
// assignment matrix. It dominates any achievable sum of real detours
// (meters over a metropolitan graph, batches bounded by queue capacity),
// so minimising total cost maximises cardinality first and only then
// minimises detour among the maximum matchings.
const unmatchedCost = 1e12

// runBatchAssign is the global-assignment batch round. Phase 1 enumerates
// the full option graph against the frozen fleet state; the solve picks
// the min-cost maximum-cardinality matching; winners commit through the
// shared protocol in (pickup deadline, request ID) order; then a remainder
// pass re-dispatches every still-unserved request against live state — a
// taxi can absorb several requests through ridesharing insertions, which a
// one-to-one matching cannot express, and the remainder pass is what keeps
// the global round's served count from ever trailing greedy's. Degenerate
// graphs (tiny batch, no feasible pair, no contested taxi) fall back to
// the greedy commit order, which is globally optimal for them anyway.
func (e *Engine) runBatchAssign(ctx context.Context, reqs []*fleet.Request, nowSeconds float64, probabilistic bool) []BatchOutcome {
	if len(reqs) < batchAssignMinSize {
		return runBatch(ctx, e, reqs, nowSeconds, probabilistic, &e.ins)
	}
	order := batchOrder(e, reqs)
	// Phase 1: enumerate every feasible (request, taxi) option against the
	// same fleet state; the read lock keeps commits out.
	options := make([][]Assignment, len(order))
	candCounts := make([]int, len(order))
	total := 0
	e.mu.RLock()
	for i, r := range order {
		t0 := time.Now()
		options[i], candCounts[i] = e.evaluate(ctx, r, nowSeconds, probabilistic)
		e.ins.dispatchSeconds.ObserveSince(t0)
		total += len(options[i])
		e.ins.batchRequests.Inc()
	}
	e.mu.RUnlock()
	// The solve only pays off when at least two requests contest a taxi;
	// with disjoint option sets the per-request costs are independent, so
	// the greedy per-request minima already form the min-cost matching.
	contested := false
	firstSeen := make(map[int64]int)
	for i := range options {
		for k := range options[i] {
			id := options[i][k].Taxi.ID
			if j, ok := firstSeen[id]; ok {
				if j != i {
					contested = true
				}
			} else {
				firstSeen[id] = i
			}
		}
	}
	out := make([]BatchOutcome, len(order))
	for i, r := range order {
		out[i] = BatchOutcome{Req: r, Assignment: Assignment{Req: r, Candidates: candCounts[i]}}
	}
	e.ins.batchAssignRounds.Inc()
	e.ins.batchAssignOptions.Add(int64(total))
	if !contested || total == 0 {
		e.ins.batchAssignFallbacks.Inc()
		for i := range out {
			if a, ok := bestOption(options[i]); ok {
				out[i].Assignment, out[i].Served = a, true
			}
		}
		commitBatch(ctx, e, out, nowSeconds, probabilistic, &e.ins)
		return out
	}
	// Cost matrix: rows are requests in batch order, columns distinct
	// candidate taxis in ascending ID order, +Inf where no feasible
	// insertion exists. Both orders are canonical, so the solve — itself
	// deterministic — sees the identical matrix at every GOMAXPROCS.
	colIDs := make([]int64, 0, len(firstSeen))
	for id := range firstSeen {
		colIDs = append(colIDs, id)
	}
	sort.Slice(colIDs, func(i, j int) bool { return colIDs[i] < colIDs[j] })
	colOf := make(map[int64]int, len(colIDs))
	for j, id := range colIDs {
		colOf[id] = j
	}
	cost := make([][]float64, len(order))
	optAt := make([][]*Assignment, len(order))
	for i := range order {
		cost[i] = make([]float64, len(colIDs))
		optAt[i] = make([]*Assignment, len(colIDs))
		for j := range cost[i] {
			cost[i][j] = math.Inf(1)
		}
		for k := range options[i] {
			o := &options[i][k]
			j := colOf[o.Taxi.ID]
			cost[i][j] = o.DetourMeters
			optAt[i][j] = o
		}
	}
	match := solveMinCostAssignment(cost)
	// Commit winners through the shared protocol. The matching gives each
	// taxi at most one winner, so winner commits cannot conflict with each
	// other; commitBatch still covers the stale-commit case (a concurrent
	// commit outside the batch).
	for i := range out {
		if j := match[i]; j >= 0 {
			out[i].Assignment, out[i].Served = *optAt[i][j], true
		}
	}
	commitBatch(ctx, e, out, nowSeconds, probabilistic, &e.ins)
	// Remainder pass: requests the matching left out (or whose commit went
	// stale) get a greedy re-dispatch against the post-commit fleet state,
	// in the same deterministic order.
	for i := range out {
		o := &out[i]
		if o.Served {
			continue
		}
		a, ok := e.DispatchContext(ctx, o.Req, nowSeconds, probabilistic)
		if !ok || e.Commit(a, nowSeconds) != nil {
			continue
		}
		o.Assignment, o.Served = a, true
		e.ins.batchAssignRemainder.Inc()
	}
	return out
}

// solveMinCostAssignment solves the min-cost maximum-cardinality
// assignment over a dense cost matrix (rows: requests, columns: taxis,
// +Inf: infeasible pair), returning each row's matched column or -1. Every
// row gets a private virtual column priced at unmatchedCost, which makes
// the matrix square-solvable while penalising non-assignment above any
// achievable detour sum — cardinality first, cost second.
//
// The algorithm is the Hungarian method in its shortest-augmenting-path
// form with dual potentials, O(rows² · cols). Determinism: the inner
// minimum scans columns in ascending index order with strict comparisons,
// so cost ties resolve to the lowest column index — with rows iterated in
// (pickup deadline, request ID) order and columns in taxi-ID order, the
// tie-break is exactly (cost, request, taxi).
func solveMinCostAssignment(cost [][]float64) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	nReal := len(cost[0])
	m := nReal + n
	at := func(i, j int) float64 {
		switch {
		case j < nReal:
			return cost[i][j]
		case j == nReal+i:
			return unmatchedCost
		default:
			return math.Inf(1)
		}
	}
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)   // p[j]: row matched to column j (1-based, 0 = free)
	way := make([]int, m+1) // alternating-tree back-pointers
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0, j1 := p[j0], 0
			delta := math.Inf(1)
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				if cur := at(i0-1, j-1) - u[i0] - v[j]; cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for j := 1; j <= nReal; j++ {
		if p[j] > 0 {
			out[p[j]-1] = j - 1
		}
	}
	return out
}
