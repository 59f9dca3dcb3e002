// Package fleet models the dynamic entities of the ridesharing system:
// ride requests (Definition 2 of the paper), taxi status with schedule and
// route (Definitions 3–5), exact motion of taxis along planned routes, and
// the schedule-insertion and feasibility machinery shared by mT-Share and
// the baseline schemes.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// PaperSpeedMps is the fleet speed of the paper's evaluation (Table II:
// 15 km/h).
const PaperSpeedMps = 15.0 * 1000 / 3600

// RequestID identifies a ride request.
type RequestID int64

// Request is a ride request r_i = <t_ri, o_ri, d_ri, e_ri>: released at
// ReleaseAt, from Origin to Dest, to be completed by Deadline. Offline
// requests additionally carry the Offline flag: they are invisible to the
// dispatcher until a taxi encounters them at the roadside. Snapshots
// store it verbatim: durations as nanoseconds, floats in encoding/json's
// exact shortest form.
type Request struct {
	ID        RequestID        `json:"id"`
	ReleaseAt time.Duration    `json:"release_at"`
	Origin    roadnet.VertexID `json:"origin"`
	Dest      roadnet.VertexID `json:"dest"`
	// Deadline is the delivery deadline e_ri.
	Deadline time.Duration `json:"deadline"`
	// DirectMeters is the shortest-path travel cost from Origin to Dest,
	// used for pickup deadlines (e_ri − cost(o,d)), detour accounting
	// (Eq. 6), and fares.
	DirectMeters float64 `json:"direct_m"`
	// Passengers is the party size; at least 1.
	Passengers int `json:"passengers"`
	// Offline marks a street-hailing request (r̄_i in the paper).
	Offline bool `json:"offline,omitempty"`
	// OriginPt/DestPt cache the geographic endpoints for mobility vectors.
	OriginPt geo.Point `json:"origin_pt"`
	DestPt   geo.Point `json:"dest_pt"`
}

// Validate reports whether the request is well-formed.
func (r *Request) Validate() error {
	switch {
	case r.Passengers < 1:
		return fmt.Errorf("fleet: request %d has %d passengers", r.ID, r.Passengers)
	case r.Deadline <= r.ReleaseAt:
		return fmt.Errorf("fleet: request %d deadline %v not after release %v", r.ID, r.Deadline, r.ReleaseAt)
	case r.DirectMeters < 0:
		return fmt.Errorf("fleet: request %d negative direct cost", r.ID)
	case r.Origin == r.Dest:
		return fmt.Errorf("fleet: request %d origin equals destination", r.ID)
	}
	return nil
}

// MobilityVector returns the request's mobility vector (Definition 9).
func (r *Request) MobilityVector() geo.MobilityVector {
	return geo.NewMobilityVector(r.OriginPt, r.DestPt)
}

// DirectSeconds converts the direct travel cost to seconds at the given
// speed in meters/second.
func (r *Request) DirectSeconds(speedMps float64) float64 {
	return r.DirectMeters / speedMps
}

// PickupDeadline returns the latest pickup time e_ri − cost(o_ri, d_ri)
// (Eq. 2's derivation) at the given speed.
func (r *Request) PickupDeadline(speedMps float64) time.Duration {
	return r.Deadline - time.Duration(r.DirectSeconds(speedMps)*float64(time.Second))
}

// Slack returns the maximum waiting time Δt = e_ri − cost(o,d) − t_ri
// (Eq. 2) at the given speed; negative slack means the request is already
// impossible.
func (r *Request) Slack(speedMps float64) time.Duration {
	return r.PickupDeadline(speedMps) - r.ReleaseAt
}

// EventKind distinguishes pickups from dropoffs in a taxi schedule.
type EventKind int8

// Event kinds.
const (
	Pickup EventKind = iota
	Dropoff
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k == Pickup {
		return "pickup"
	}
	return "dropoff"
}

// Event is one element of a taxi schedule (Definition 4): picking up or
// dropping off a request's passengers at the request's origin or
// destination vertex.
type Event struct {
	Req  *Request
	Kind EventKind
}

// Vertex returns the road vertex where the event takes place.
func (e Event) Vertex() roadnet.VertexID {
	if e.Kind == Pickup {
		return e.Req.Origin
	}
	return e.Req.Dest
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s(r%d@v%d)", e.Kind, e.Req.ID, e.Vertex())
}

// ValidSequence reports whether events form a valid schedule fragment:
// every request's pickup precedes its dropoff, and no request appears more
// than once per kind.
func ValidSequence(events []Event) bool {
	seen := make(map[RequestID]EventKind, len(events))
	for _, e := range events {
		prev, ok := seen[e.Req.ID]
		switch e.Kind {
		case Pickup:
			if ok {
				return false // duplicate pickup or pickup after dropoff
			}
		case Dropoff:
			if ok && prev != Pickup {
				return false // duplicate dropoff
			}
			// A dropoff without a preceding pickup is valid only for
			// passengers already on board; callers with full context use
			// EvaluateSchedule for that. Here we only reject ordering
			// violations within the fragment.
		}
		seen[e.Req.ID] = e.Kind
	}
	return true
}

// InsertionCandidates enumerates every schedule obtained by inserting the
// request's pickup and dropoff into the existing schedule while keeping
// existing event order unchanged — the insertion strategy mT-Share shares
// with prior work (§IV-C2): pickup at position i, dropoff at position j,
// 0 ≤ i ≤ j ≤ m. The result has (m+1)(m+2)/2 candidate schedules.
func InsertionCandidates(schedule []Event, req *Request) [][]Event {
	m := len(schedule)
	out := make([][]Event, 0, (m+1)*(m+2)/2)
	pk := Event{Req: req, Kind: Pickup}
	dp := Event{Req: req, Kind: Dropoff}
	for i := 0; i <= m; i++ {
		for j := i; j <= m; j++ {
			cand := make([]Event, 0, m+2)
			cand = append(cand, schedule[:i]...)
			cand = append(cand, pk)
			cand = append(cand, schedule[i:j]...)
			cand = append(cand, dp)
			cand = append(cand, schedule[j:]...)
			out = append(out, cand)
		}
	}
	return out
}
