package match

import (
	"context"

	"repro/internal/fleet"
	"repro/internal/partition"
)

// LandmarkOracle returns the engine's landmark lower-bound estimator, or
// nil when Config.DisableLandmarkLB turned it off.
func (e *Engine) LandmarkOracle() *partition.Oracle { return e.oracle }

// NumTaxis returns the number of registered taxis.
func (e *Engine) NumTaxis() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.taxis)
}

// BatchBest is the batch round's enumeration reduced to one request: the
// best of its feasible options (minimum detour, ties to the lowest taxi
// ID) with the winner's route legs built, as the round would commit it.
func (e *Engine) BatchBest(ctx context.Context, req *fleet.Request, nowSeconds float64, probabilistic bool) (Assignment, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	opts, n := e.evaluate(ctx, req, nowSeconds, probabilistic)
	a, ok := bestOption(opts)
	if !ok {
		return Assignment{Req: req, Candidates: n}, false
	}
	if a.Legs == nil {
		a.Legs, ok = fleet.BuildLegs(e.router, a.Taxi.NextVertex(), a.Events)
	}
	return a, ok
}
