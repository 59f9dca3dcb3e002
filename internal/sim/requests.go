package sim

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// PrepareOptions configures trip-to-request conversion. Every request
// carries one passenger, as in the paper, and its deadline term converts
// the direct distance at the paper's fleet speed.
type PrepareOptions struct {
	// Rho is the flexible factor ρ of Eq. 9: e = t + cost(o,d)·ρ.
	Rho float64
	// OfflineFrac marks this fraction of requests as offline street
	// hails, chosen pseudo-randomly with Seed (the non-peak scenario
	// hides ~1/3 of requests).
	OfflineFrac float64
	Seed        int64

	// MeetingPointRadiusMeters, when positive, enables the meeting-points
	// variant (Laupichler & Sanders): instead of boarding at the vertex
	// nearest their door, riders walk up to this far to the candidate
	// pickup vertex with the cheapest direct drive to their destination.
	// The walk delays the request's release (the rider must get there)
	// while the deadline keeps Eq. 9's span, so a shorter drive converts
	// into insertion slack. Zero keeps the paper's nearest-vertex
	// snapping — and, deliberately, an identical random stream, so a
	// radius sweep shares the same offline draws per trip.
	MeetingPointRadiusMeters float64
}

// walkSpeedMps prices a rider's walk to a meeting point.
const walkSpeedMps = 1.4

// maxMeetingCandidates bounds the exact-cost evaluations per trip; the
// nearest candidates by walk distance are kept (deterministic order).
const maxMeetingCandidates = 16

// PrepareRequests converts trace trips to simulation requests: endpoints
// snapped to road vertices, exact direct costs from rt (the world's
// router, with its CH attached), deadlines set per Eq. 9. Trips whose
// endpoints snap to the same vertex or that are unroutable are dropped,
// matching the paper's pre-mapping step.
func PrepareRequests(rt *roadnet.Router, spx *roadnet.SpatialIndex, trips []trace.Trip, opts PrepareOptions) []*fleet.Request {
	g := rt.Graph()
	rng := rand.New(rand.NewSource(opts.Seed))
	out := make([]*fleet.Request, 0, len(trips))
	for _, tr := range trips {
		o, ok1 := spx.NearestVertex(tr.Origin)
		d, ok2 := spx.NearestVertex(tr.Dest)
		if !ok1 || !ok2 || o == d {
			continue
		}
		direct := rt.Cost(o, d)
		if math.IsInf(direct, 1) {
			continue
		}
		release, span := tr.ReleaseAt, time.Duration(direct/fleet.PaperSpeedMps*opts.Rho*float64(time.Second))
		if opts.MeetingPointRadiusMeters > 0 {
			if mp, mpDirect, found := chooseMeetingPoint(rt, spx, tr.Origin, o, d, direct, opts.MeetingPointRadiusMeters); found {
				walk := geo.Equirect(tr.Origin, g.Point(mp))
				o, direct = mp, mpDirect
				release = tr.ReleaseAt + time.Duration(walk/walkSpeedMps*float64(time.Second))
			}
		}
		req := &fleet.Request{
			ID:           fleet.RequestID(tr.ID),
			ReleaseAt:    release,
			Origin:       o,
			Dest:         d,
			Deadline:     release + span,
			DirectMeters: direct,
			Passengers:   1,
			Offline:      rng.Float64() < opts.OfflineFrac,
			OriginPt:     g.Point(o),
			DestPt:       g.Point(d),
		}
		if req.Validate() != nil {
			continue
		}
		out = append(out, req)
	}
	return out
}

// chooseMeetingPoint picks the pickup vertex within walking radius of
// the rider's door that minimizes the direct drive to d, ties broken by
// (walk distance, vertex ID) so the choice is deterministic. It returns
// found=false when no in-radius candidate beats the nearest-vertex
// snap o (whose cost is nearestDirect), keeping the request identical
// to the radius-0 baseline.
func chooseMeetingPoint(rt *roadnet.Router, spx *roadnet.SpatialIndex, door geo.Point, o, d roadnet.VertexID, nearestDirect, radius float64) (roadnet.VertexID, float64, bool) {
	g := rt.Graph()
	cands := spx.VerticesWithin(door, radius)
	if len(cands) == 0 {
		return o, 0, false
	}
	type cand struct {
		v    roadnet.VertexID
		walk float64
	}
	cs := make([]cand, 0, len(cands))
	for _, v := range cands {
		if v == d {
			continue
		}
		cs = append(cs, cand{v, geo.Equirect(door, g.Point(v))})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].walk != cs[j].walk {
			return cs[i].walk < cs[j].walk
		}
		return cs[i].v < cs[j].v
	})
	if len(cs) > maxMeetingCandidates {
		cs = cs[:maxMeetingCandidates]
	}
	best, bestDirect, found := o, nearestDirect, false
	for _, c := range cs {
		if c.v == o {
			continue
		}
		if direct := rt.Cost(c.v, d); direct < bestDirect {
			best, bestDirect, found = c.v, direct, true
		}
	}
	return best, bestDirect, found
}
