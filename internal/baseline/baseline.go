// Package baseline implements the comparison schemes of the paper's
// evaluation (§V-A2):
//
//   - NoSharing — the regular taxi service: each request goes to the
//     geographically nearest vacant taxi within the search range, one
//     request per taxi at a time.
//   - TShare — Ma et al.'s T-Share: a grid index over taxi locations, a
//     dual-side candidate search around the request's origin and
//     destination, and the *first* valid insertion rather than the best.
//   - PGreedyDP — Tong et al.'s pGreedyDP: a grid index, origin-side
//     candidate search, and the minimum-detour insertion per candidate.
//
// All three implement the dispatch.Scheme contract the mT-Share engine
// does, so the runtime can swap schemes freely. Offline requests are served
// opportunistically per the paper's adjusted setting: when a taxi with
// spare seats encounters one and a valid insertion exists, it serves it.
package baseline

import (
	"math"
	"sync"

	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/roadnet"
)

// gridCellMeters sizes the location-grid index cells.
const gridCellMeters = 500

// base carries the state common to every baseline dispatcher. The
// baselines plan at the paper's fleet speed and search for candidates
// within gammaMeters (γ) of a request's origin.
type base struct {
	gammaMeters float64
	g           *roadnet.Graph
	router      *roadnet.Router
	grid        *index.LocationGrid

	mu    sync.RWMutex
	taxis map[int64]*fleet.Taxi
}

// newBase builds the common state over the router's graph. Every baseline
// constructor takes the router it routes with, so the caller decides its
// memo budget and attaches the world's CH.
func newBase(router *roadnet.Router, gammaMeters float64) *base {
	g := router.Graph()
	min, max := g.Bounds()
	return &base{
		gammaMeters: gammaMeters,
		g:           g,
		router:      router,
		grid:        index.NewLocationGrid(min, max, gridCellMeters),
		taxis:       make(map[int64]*fleet.Taxi),
	}
}

// SpeedMps is the fleet speed the baselines plan with.
func (b *base) SpeedMps() float64 { return fleet.PaperSpeedMps }

// AddTaxi registers a taxi with the scheme.
func (b *base) AddTaxi(t *fleet.Taxi, nowSeconds float64) {
	b.mu.Lock()
	b.taxis[t.ID] = t
	b.mu.Unlock()
	b.grid.Update(t.ID, t.Point())
}

// OnTaxiAdvanced refreshes the location index after a movement tick.
func (b *base) OnTaxiAdvanced(t *fleet.Taxi, nowSeconds float64) {
	b.grid.Update(t.ID, t.Point())
}

// OnRequestCompleted is a no-op for the grid-indexed baselines.
func (b *base) OnRequestCompleted(req *fleet.Request, nowSeconds float64) {}

// PlanIdle is a no-op: baselines do not cruise for offline passengers.
func (b *base) PlanIdle(t *fleet.Taxi, nowSeconds float64) bool { return false }

// SupportsOfflineDispatch is false for the adjusted baselines: they serve
// offline requests only when a passing taxi can insert them directly.
func (b *base) SupportsOfflineDispatch() bool { return false }

// IndexMemoryBytes reports the scheme's index footprint (Table IV).
func (b *base) IndexMemoryBytes() int64 { return b.grid.MemoryBytes() }

// legCost is the plain shortest-path leg coster every baseline routes
// with.
func (b *base) legCost(u, v roadnet.VertexID) (float64, bool) {
	c := b.router.Cost(u, v)
	return c, !math.IsInf(c, 1)
}

// commit routes events' shortest-path legs, installs them on the taxi and
// refreshes its index entry.
func (b *base) commit(t *fleet.Taxi, events []fleet.Event, nowSeconds float64) bool {
	legs, ok := fleet.BuildLegs(b.router, t.NextVertex(), events)
	if !ok {
		return false
	}
	if err := t.SetPlan(events, legs); err != nil {
		return false
	}
	b.grid.Update(t.ID, t.Point())
	return true
}

// taxiByID looks a taxi up under the read lock.
func (b *base) taxiByID(id int64) (*fleet.Taxi, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.taxis[id]
	return t, ok
}

// insertable reports whether req can be feasibly inserted into t's
// schedule, returning the chosen schedule. firstValid selects T-Share's
// first-found behaviour over minimum-detour.
func (b *base) insertable(t *fleet.Taxi, req *fleet.Request, nowSeconds float64, firstValid bool) ([]fleet.Event, fleet.EvalResult, bool) {
	if t.IdleSeats() < req.Passengers {
		return nil, fleet.EvalResult{}, false
	}
	params := t.EvalParamsAt(nowSeconds, fleet.PaperSpeedMps)
	return fleet.BestInsertion(t.Schedule(), req, b.legCost, params, firstValid)
}

// TryServeOffline implements the adjusted baseline behaviour for offline
// encounters: insert when valid, first-fit.
func (b *base) TryServeOffline(t *fleet.Taxi, req *fleet.Request, nowSeconds float64) bool {
	events, _, ok := b.insertable(t, req, nowSeconds, true)
	if !ok {
		return false
	}
	return b.commit(t, events, nowSeconds)
}
