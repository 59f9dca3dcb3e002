package match

import "repro/internal/obs"

// EngineStats is a point-in-time summary of what the matching pipeline
// did — how many dispatches ran, how the candidate-search refinement
// rules pruned, how routing modes were exercised, and the cumulative
// per-stage wall time. It is a convenience view over the engine's
// registry-backed instruments (see Engine.Metrics for the full surface,
// including latency histograms).
type EngineStats struct {
	// Dispatches is the number of Dispatch calls.
	Dispatches int64
	// Assignments is the number of successful Commit calls.
	Assignments int64
	// CandidatesExamined sums candidate-set sizes across dispatches.
	CandidatesExamined int64
	// PrunedByDirection counts occupied taxis dropped by the mobility-
	// cluster intersection.
	PrunedByDirection int64
	// PrunedByCapacity counts taxis dropped for lacking spare seats.
	PrunedByCapacity int64
	// PrunedByReachability counts taxis dropped by rule 3 (cannot reach
	// the pickup partition in time).
	PrunedByReachability int64
	// ProbabilisticPlans counts probabilistic route plans attempted, and
	// ProbabilisticFailures those discarded.
	ProbabilisticPlans    int64
	ProbabilisticFailures int64
	// OfflineInsertions counts successful roadside-encounter insertions.
	OfflineInsertions int64
	// CruisePlans counts installed idle cruises.
	CruisePlans int64
	// BatchRequests counts requests evaluated through DispatchBatch, and
	// BatchConflicts those whose winning taxi was taken by an earlier
	// commit of the same batch (forcing a re-dispatch).
	BatchRequests  int64
	BatchConflicts int64
	// BatchAssignRounds counts global-assignment batch rounds past the
	// size threshold (Config.BatchAssign); BatchAssignOptions sums the
	// feasible (request, taxi) options their cost graphs held;
	// BatchAssignFallbacks the rounds whose degenerate graph (no contested
	// taxi, or no feasible pair) fell back to the greedy commit order; and
	// BatchAssignRemainder the requests the post-solve remainder pass
	// served against live fleet state. All stay 0 without BatchAssign.
	BatchAssignRounds    int64
	BatchAssignOptions   int64
	BatchAssignFallbacks int64
	BatchAssignRemainder int64
	// LBEvaluated counts candidates screened by the landmark lower-bound
	// oracle, and LBPruned those it proved infeasible (skipping exact
	// schedule evaluation). Both stay 0 with Config.DisableLandmarkLB.
	LBEvaluated int64
	LBPruned    int64
	// Per-stage cumulative wall time of Dispatch: candidate search,
	// schedule enumeration + routing (the parallel fan-out), and the
	// winner's leg materialisation. Derived from the stage histograms'
	// sums.
	CandidateSearchNanos int64
	SchedulingNanos      int64
	LegBuildNanos        int64
}

// Add accumulates another snapshot into s (used when aggregating stats
// across engines, e.g. over an experiment suite).
func (s *EngineStats) Add(o EngineStats) {
	s.Dispatches += o.Dispatches
	s.Assignments += o.Assignments
	s.CandidatesExamined += o.CandidatesExamined
	s.PrunedByDirection += o.PrunedByDirection
	s.PrunedByCapacity += o.PrunedByCapacity
	s.PrunedByReachability += o.PrunedByReachability
	s.ProbabilisticPlans += o.ProbabilisticPlans
	s.ProbabilisticFailures += o.ProbabilisticFailures
	s.OfflineInsertions += o.OfflineInsertions
	s.CruisePlans += o.CruisePlans
	s.BatchRequests += o.BatchRequests
	s.BatchConflicts += o.BatchConflicts
	s.BatchAssignRounds += o.BatchAssignRounds
	s.BatchAssignOptions += o.BatchAssignOptions
	s.BatchAssignFallbacks += o.BatchAssignFallbacks
	s.BatchAssignRemainder += o.BatchAssignRemainder
	s.LBEvaluated += o.LBEvaluated
	s.LBPruned += o.LBPruned
	s.CandidateSearchNanos += o.CandidateSearchNanos
	s.SchedulingNanos += o.SchedulingNanos
	s.LegBuildNanos += o.LegBuildNanos
}

// instruments are the engine's registry-backed instruments under the
// mtshare_match_* namespace, resolved once at construction so the hot
// path never touches the registry's name map.
type instruments struct {
	dispatches            *obs.Counter
	assignments           *obs.Counter
	candidatesExamined    *obs.Counter
	prunedByDirection     *obs.Counter
	prunedByCapacity      *obs.Counter
	prunedByReachability  *obs.Counter
	probabilisticPlans    *obs.Counter
	probabilisticFailures *obs.Counter
	offlineInsertions     *obs.Counter
	cruisePlans           *obs.Counter
	batchRequests         *obs.Counter
	batchConflicts        *obs.Counter
	batchAssignRounds     *obs.Counter
	batchAssignOptions    *obs.Counter
	batchAssignFallbacks  *obs.Counter
	batchAssignRemainder  *obs.Counter
	lbEvaluated           *obs.Counter
	lbPruned              *obs.Counter

	dispatchSeconds        *obs.Histogram
	candidateSearchSeconds *obs.Histogram
	schedulingSeconds      *obs.Histogram
	legBuildSeconds        *obs.Histogram
	commitSeconds          *obs.Histogram
	lbEstimateSeconds      *obs.Histogram
}

func newInstruments(reg *obs.Registry) instruments {
	return instruments{
		dispatches:            reg.Counter("mtshare_match_dispatches_total"),
		assignments:           reg.Counter("mtshare_match_assignments_total"),
		candidatesExamined:    reg.Counter("mtshare_match_candidates_examined_total"),
		prunedByDirection:     reg.Counter("mtshare_match_pruned_direction_total"),
		prunedByCapacity:      reg.Counter("mtshare_match_pruned_capacity_total"),
		prunedByReachability:  reg.Counter("mtshare_match_pruned_reachability_total"),
		probabilisticPlans:    reg.Counter("mtshare_match_probabilistic_plans_total"),
		probabilisticFailures: reg.Counter("mtshare_match_probabilistic_failures_total"),
		offlineInsertions:     reg.Counter("mtshare_match_offline_insertions_total"),
		cruisePlans:           reg.Counter("mtshare_match_cruise_plans_total"),
		batchRequests:         reg.Counter("mtshare_match_batch_requests_total"),
		batchConflicts:        reg.Counter("mtshare_match_batch_conflicts_total"),
		batchAssignRounds:     reg.Counter("mtshare_match_batch_assign_rounds_total"),
		batchAssignOptions:    reg.Counter("mtshare_match_batch_assign_options_total"),
		batchAssignFallbacks:  reg.Counter("mtshare_match_batch_assign_fallbacks_total"),
		batchAssignRemainder:  reg.Counter("mtshare_match_batch_assign_remainder_total"),
		lbEvaluated:           reg.Counter("mtshare_match_lb_evaluated_total"),
		lbPruned:              reg.Counter("mtshare_match_lb_pruned_total"),

		dispatchSeconds:        reg.Histogram("mtshare_match_dispatch_seconds"),
		candidateSearchSeconds: reg.Histogram("mtshare_match_candidate_search_seconds"),
		schedulingSeconds:      reg.Histogram("mtshare_match_scheduling_seconds"),
		legBuildSeconds:        reg.Histogram("mtshare_match_leg_build_seconds"),
		commitSeconds:          reg.Histogram("mtshare_match_commit_seconds"),
		lbEstimateSeconds:      reg.Histogram("mtshare_match_lb_estimate_seconds"),
	}
}

// Stats returns a snapshot of the engine's pipeline counters. Stage nanos
// are derived from the corresponding latency histograms' sums.
func (e *Engine) Stats() EngineStats {
	toNanos := func(h *obs.Histogram) int64 { return int64(h.Snapshot().Sum * 1e9) }
	return EngineStats{
		Dispatches:            e.ins.dispatches.Value(),
		Assignments:           e.ins.assignments.Value(),
		CandidatesExamined:    e.ins.candidatesExamined.Value(),
		PrunedByDirection:     e.ins.prunedByDirection.Value(),
		PrunedByCapacity:      e.ins.prunedByCapacity.Value(),
		PrunedByReachability:  e.ins.prunedByReachability.Value(),
		ProbabilisticPlans:    e.ins.probabilisticPlans.Value(),
		ProbabilisticFailures: e.ins.probabilisticFailures.Value(),
		OfflineInsertions:     e.ins.offlineInsertions.Value(),
		CruisePlans:           e.ins.cruisePlans.Value(),
		BatchRequests:         e.ins.batchRequests.Value(),
		BatchConflicts:        e.ins.batchConflicts.Value(),
		BatchAssignRounds:     e.ins.batchAssignRounds.Value(),
		BatchAssignOptions:    e.ins.batchAssignOptions.Value(),
		BatchAssignFallbacks:  e.ins.batchAssignFallbacks.Value(),
		BatchAssignRemainder:  e.ins.batchAssignRemainder.Value(),
		LBEvaluated:           e.ins.lbEvaluated.Value(),
		LBPruned:              e.ins.lbPruned.Value(),
		CandidateSearchNanos:  toNanos(e.ins.candidateSearchSeconds),
		SchedulingNanos:       toNanos(e.ins.schedulingSeconds),
		LegBuildNanos:         toNanos(e.ins.legBuildSeconds),
	}
}
