package baseline

import (
	"context"

	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/roadnet"
)

// Result is the dispatch outcome type shared with the runtime.
type Result = dispatch.Outcome

// NoSharing is the regular taxi service: the nearest vacant taxi within γ
// serves the whole request exclusively.
type NoSharing struct{ *base }

// NewNoSharing creates the no-ridesharing scheme.
func NewNoSharing(router *roadnet.Router, gammaMeters float64) *NoSharing {
	return &NoSharing{base: newBase(router, gammaMeters)}
}

// Name identifies the scheme in reports.
func (s *NoSharing) Name() string { return "No-Sharing" }

// OnRequest assigns the nearest vacant feasible taxi.
func (s *NoSharing) OnRequest(_ context.Context, req *fleet.Request, nowSeconds float64) Result {
	near := s.grid.Near(req.OriginPt, s.gammaMeters)
	res := Result{}
	for _, id := range near {
		t, ok := s.taxiByID(id)
		if !ok || !t.Empty() {
			continue
		}
		res.Candidates++
		events, _, ok := s.insertable(t, req, nowSeconds, true)
		if !ok {
			continue
		}
		if s.commit(t, events, nowSeconds) {
			res.TaxiID = id
			res.Served = true
			return res
		}
	}
	return res
}

// TryServeOffline never shares under NoSharing: an occupied taxi passes
// by, a vacant one behaves as for an online request.
func (s *NoSharing) TryServeOffline(t *fleet.Taxi, req *fleet.Request, nowSeconds float64) bool {
	return t.Empty() && s.base.TryServeOffline(t, req, nowSeconds)
}

// TShare approximates Ma et al.'s T-Share as the evaluation exercises it
// (§V-A2): a grid index over taxi locations, a dual-side candidate check
// (near the origin now, and — for occupied taxis — heading toward the
// destination), and the *first* valid insertion rather than the best one.
// It reproduces the paper's measured behaviour (smallest response time,
// small candidate sets) without Ma et al.'s arrival-time cell lists. See
// DESIGN.md.
type TShare struct{ *base }

// NewTShare creates the T-Share baseline.
func NewTShare(router *roadnet.Router, gammaMeters float64) *TShare {
	return &TShare{base: newBase(router, gammaMeters)}
}

// Name identifies the scheme in reports.
func (s *TShare) Name() string { return "T-Share" }

// OnRequest performs the dual-side search and takes the first feasible
// insertion.
func (s *TShare) OnRequest(_ context.Context, req *fleet.Request, nowSeconds float64) Result {
	origSide := s.grid.Near(req.OriginPt, s.gammaMeters)
	res := Result{}
	for _, id := range origSide {
		t, ok := s.taxiByID(id)
		if !ok {
			continue
		}
		// Dual-side rule: vacant taxis qualify from the origin side alone;
		// occupied taxis must be heading the destination's way.
		if !t.Empty() && !headsTowards(t, req.DestPt) {
			continue
		}
		if t.IdleSeats() < req.Passengers {
			continue
		}
		res.Candidates++
		events, _, ok := s.insertable(t, req, nowSeconds, true)
		if !ok {
			continue
		}
		if s.commit(t, events, nowSeconds) {
			res.TaxiID = id
			res.Served = true
			return res
		}
	}
	return res
}

// headsTowards reports whether the taxi's final route vertex is closer to
// the target than the taxi is now — the temporal half of T-Share's
// dual-side search, approximated from the planned route.
func headsTowards(t *fleet.Taxi, target geo.Point) bool {
	route := t.Route()
	if len(route) == 0 {
		return false
	}
	last := t.Graph().Point(route[len(route)-1])
	return geo.Equirect(last, target) < geo.Equirect(t.Point(), target)
}

// PGreedyDP approximates Tong et al.'s pGreedyDP per the paper's
// description: grid indexing, origin-side candidate search (no direction
// filtering, hence the largest candidate sets of Table III), and the
// minimum-detour insertion found by dynamic programming — functionally the
// exhaustive minimum our shared insertion machinery computes.
type PGreedyDP struct{ *base }

// NewPGreedyDP creates the pGreedyDP baseline.
func NewPGreedyDP(router *roadnet.Router, gammaMeters float64) *PGreedyDP {
	return &PGreedyDP{base: newBase(router, gammaMeters)}
}

// Name identifies the scheme in reports.
func (s *PGreedyDP) Name() string { return "pGreedyDP" }

// OnRequest searches all taxis around the origin and picks the
// minimum-detour feasible insertion across all of them.
func (s *PGreedyDP) OnRequest(_ context.Context, req *fleet.Request, nowSeconds float64) Result {
	near := s.grid.Near(req.OriginPt, s.gammaMeters)
	res := Result{}
	var (
		bestTaxi   *fleet.Taxi
		bestEvents []fleet.Event
		bestDetour float64
		found      bool
	)
	for _, id := range near {
		t, ok := s.taxiByID(id)
		if !ok {
			continue
		}
		if t.IdleSeats() < req.Passengers {
			continue
		}
		res.Candidates++
		events, eval, ok := s.insertable(t, req, nowSeconds, false)
		if !ok {
			continue
		}
		detour := eval.TotalMeters - t.RemainingMeters()
		if !found || detour < bestDetour {
			bestTaxi, bestEvents, bestDetour, found = t, events, detour, true
		}
	}
	if !found {
		return res
	}
	if s.commit(bestTaxi, bestEvents, nowSeconds) {
		res.TaxiID = bestTaxi.ID
		res.Served = true
	}
	return res
}
