package match

import (
	"context"

	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/roadnet"
)

// Scheme adapts an Engine to the dispatcher contract; AddTaxi and
// TryServeOffline are the engine's own. Probabilistic selects the
// mT-Share_pro variant: probabilistic routing in Alg. 1 for eligible taxis
// plus probabilistic cruising of idle taxis toward likely offline demand.
type Scheme struct {
	*Engine
	// Probabilistic enables probabilistic routing and cruising
	// (mT-Share_pro).
	Probabilistic bool
}

// NewScheme wraps an engine as a dispatcher.
func NewScheme(e *Engine, probabilistic bool) *Scheme {
	return &Scheme{Engine: e, Probabilistic: probabilistic}
}

// Name identifies the scheme in reports.
func (s *Scheme) Name() string {
	if s.Probabilistic {
		return "mT-Share-pro"
	}
	return "mT-Share"
}

// OnRequest runs Alg. 1 under ctx and commits the winning assignment.
func (s *Scheme) OnRequest(ctx context.Context, req *fleet.Request, nowSeconds float64) dispatch.Outcome {
	a, ok := s.DispatchContext(ctx, req, nowSeconds, s.Probabilistic)
	out := dispatch.Outcome{Candidates: a.Candidates}
	if !ok {
		return out
	}
	if err := s.Commit(a, nowSeconds); err != nil {
		out.Failed = true
		return out
	}
	out.Served, out.TaxiID, out.DetourMeters = true, a.Taxi.ID, a.DetourMeters
	for k, ev := range a.Events {
		switch {
		case ev.Req.ID != req.ID:
		case ev.Kind == fleet.Pickup:
			out.PickupAt = a.Eval.ArrivalSeconds[k]
		default:
			out.DropoffAt = a.Eval.ArrivalSeconds[k]
		}
	}
	return out
}

// OnBatch implements dispatch.BatchDispatcher: the pending queue's
// batch re-dispatch, evaluated through the engine's parallel candidate
// pipeline and committed in deterministic (pickup deadline, request ID)
// order with conflict resolution.
func (s *Scheme) OnBatch(reqs []*fleet.Request, nowSeconds float64) []dispatch.BatchResult {
	outs := s.DispatchBatch(context.Background(), reqs, nowSeconds, s.Probabilistic)
	res := make([]dispatch.BatchResult, len(outs))
	for i, o := range outs {
		r := dispatch.BatchResult{Req: o.Req, Conflict: o.Conflict}
		r.Out.Candidates = o.Assignment.Candidates
		if o.Served {
			r.Out.Served = true
			r.Out.TaxiID = o.Assignment.Taxi.ID
		}
		res[i] = r
	}
	return res
}

// OnTaxiAdvanced refreshes a taxi's indexes when it crossed a partition
// border since it was last indexed. Entries computed at plan time stay
// valid while the taxi follows the plan (constant speed, fixed route), so a
// full reindex per tick is unnecessary; only border crossings leave stale
// rows behind.
func (s *Scheme) OnTaxiAdvanced(t *fleet.Taxi, nowSeconds float64) {
	if home, ok := s.pindex.Home(t.ID); ok && home == s.pt.PartitionOf(t.At()) {
		return
	}
	s.ReindexTaxi(t, nowSeconds)
}

// OnRequestCompleted removes the request from the mobility clusters.
func (s *Scheme) OnRequestCompleted(req *fleet.Request, nowSeconds float64) {
	s.OnRequestDone(req)
}

// PlanIdle plans a probabilistic cruise for an idle, parked taxi when the
// probabilistic variant is active.
func (s *Scheme) PlanIdle(t *fleet.Taxi, nowSeconds float64) bool {
	if !s.Probabilistic || !t.Empty() || len(t.Route()) > 1 {
		return false
	}
	path, ok := s.CruisePlan(t)
	if !ok {
		return false
	}
	if err := s.installPlan(t, nil, [][]roadnet.VertexID{path}); err != nil {
		return false
	}
	s.noteCruisePlanned(t)
	s.ReindexTaxi(t, nowSeconds)
	return true
}

// SupportsOfflineDispatch is true: mT-Share's server dispatches another
// taxi when a roadside insertion fails (§IV-C2).
func (s *Scheme) SupportsOfflineDispatch() bool { return true }
