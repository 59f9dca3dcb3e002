// Package dispatch defines the scheme-facing contract between the
// dispatch runtime (internal/service) and the ridesharing dispatchers it
// drives (mT-Share and the baselines), so every driver can swap schemes
// freely.
package dispatch

import (
	"context"

	"repro/internal/fleet"
)

// Outcome reports a dispatch attempt.
type Outcome struct {
	// Served is true when a taxi was assigned and its plan installed.
	Served bool
	// TaxiID is the assigned taxi when Served.
	TaxiID int64
	// Candidates is the number of candidate taxis examined (Table III).
	Candidates int
	// Failed marks a winning plan that could not be committed.
	Failed bool
	// DetourMeters is the taxi's added travel distance, and PickupAt and
	// DropoffAt the request's planned arrival times (absolute seconds),
	// when Served. A scheme may leave them zero.
	DetourMeters        float64
	PickupAt, DropoffAt float64
}

// BatchResult pairs one request of a batch re-dispatch with its outcome.
type BatchResult struct {
	Req *fleet.Request
	Out Outcome
	// Conflict marks a result that had to be re-evaluated after an
	// earlier commit in the same batch took its first-choice taxi.
	Conflict bool
}

// BatchDispatcher is an optional Scheme extension used by the pending
// queue's retry round: evaluate a batch of parked requests against the
// current fleet and commit winners in deterministic (pickup deadline,
// request ID) order. The runtime falls back to per-request OnRequest
// calls in the same order for schemes that do not implement it.
type BatchDispatcher interface {
	OnBatch(reqs []*fleet.Request, nowSeconds float64) []BatchResult
}

// Scheme is a ridesharing dispatcher.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// SpeedMps is the constant fleet speed the scheme plans with; the
	// runtime drives taxis at it.
	SpeedMps() float64
	// AddTaxi registers a taxi with the scheme's indexes.
	AddTaxi(t *fleet.Taxi, nowSeconds float64)
	// OnRequest attempts to serve an online request released now. ctx
	// carries the caller's cancellation and tracer; a scheme may ignore it.
	OnRequest(ctx context.Context, req *fleet.Request, nowSeconds float64) Outcome
	// OnTaxiAdvanced lets the scheme refresh its indexes after the taxi
	// moved during a tick.
	OnTaxiAdvanced(t *fleet.Taxi, nowSeconds float64)
	// OnRequestCompleted tells the scheme a request left the system:
	// delivered, or expired while parked.
	OnRequestCompleted(req *fleet.Request, nowSeconds float64)
	// TryServeOffline handles a roadside encounter between taxi t and an
	// offline request; it returns true when the taxi now serves it.
	TryServeOffline(t *fleet.Taxi, req *fleet.Request, nowSeconds float64) bool
	// PlanIdle optionally plans a cruise for an idle taxi (probabilistic
	// seeking of offline passengers); it returns true when a plan was
	// installed.
	PlanIdle(t *fleet.Taxi, nowSeconds float64) bool
	// SupportsOfflineDispatch reports whether a failed roadside insertion
	// should fall back to a full dispatch (mT-Share's server-side
	// behaviour; the adjusted baselines only insert on encounter).
	SupportsOfflineDispatch() bool
	// IndexMemoryBytes reports the scheme's index footprint (Table IV).
	IndexMemoryBytes() int64
}
