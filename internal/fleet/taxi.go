package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// Taxi is the instantaneous status of a shared taxi (Definition 3): its
// position on the road network, its schedule S_tj (pending pickup/dropoff
// events), and its route R_tj (the concatenated travel paths between
// consecutive events). Motion is exact: the taxi advances along the
// planned polyline by distance, firing events as their vertices are
// reached.
//
// Taxi is not safe for concurrent use; the simulation engine owns each
// taxi on a single goroutine.
type Taxi struct {
	ID       int64
	Capacity int

	g *roadnet.Graph

	// Planned polyline and progress along it.
	path   []roadnet.VertexID
	costs  []float64 // costs[i] = edge cost path[i] -> path[i+1]
	pos    int       // index of the last vertex reached
	offset float64   // meters progressed along edge path[pos] -> path[pos+1]

	schedule  []Event
	eventPos  []int // index in path of each scheduled event, non-decreasing
	nextEvent int

	idleAt roadnet.VertexID // position when no path is planned

	waiting map[RequestID]*Request // assigned, not yet picked up
	onboard map[RequestID]*Request // picked up, not yet delivered
	seats   int

	odometer float64 // total meters actually driven
}

// NewTaxi creates an idle taxi at the given vertex.
func NewTaxi(g *roadnet.Graph, id int64, capacity int, at roadnet.VertexID) *Taxi {
	if capacity < 1 {
		panic(fmt.Sprintf("fleet: taxi %d capacity %d", id, capacity))
	}
	return &Taxi{
		ID:       id,
		Capacity: capacity,
		g:        g,
		idleAt:   at,
		waiting:  make(map[RequestID]*Request),
		onboard:  make(map[RequestID]*Request),
	}
}

// Graph returns the road network the taxi operates on.
func (t *Taxi) Graph() *roadnet.Graph { return t.g }

// Odometer returns the total meters the taxi has actually driven.
func (t *Taxi) Odometer() float64 { return t.odometer }

// At returns the last vertex the taxi reached (its current position when
// not mid-edge).
func (t *Taxi) At() roadnet.VertexID {
	if len(t.path) == 0 {
		return t.idleAt
	}
	return t.path[t.pos]
}

// Point returns the taxi's current geographic position, interpolated when
// mid-edge.
func (t *Taxi) Point() geo.Point {
	at := t.At()
	if t.offset <= 0 || t.pos+1 >= len(t.path) {
		return t.g.Point(at)
	}
	frac := t.offset / t.costs[t.pos]
	a := t.g.Point(t.path[t.pos])
	b := t.g.Point(t.path[t.pos+1])
	return geo.Point{Lat: a.Lat + (b.Lat-a.Lat)*frac, Lng: a.Lng + (b.Lng-a.Lng)*frac}
}

// NextVertex returns the vertex any new plan must depart from: the next
// vertex along the committed edge when mid-edge, else the current vertex.
func (t *Taxi) NextVertex() roadnet.VertexID {
	if t.offset > 0 && t.pos+1 < len(t.path) {
		return t.path[t.pos+1]
	}
	return t.At()
}

// LeadMeters returns the distance still to travel to reach NextVertex.
func (t *Taxi) LeadMeters() float64 {
	if t.offset > 0 && t.pos+1 < len(t.path) {
		return t.costs[t.pos] - t.offset
	}
	return 0
}

// Schedule returns the pending events in order. The slice must not be
// modified.
func (t *Taxi) Schedule() []Event { return t.schedule[t.nextEvent:] }

// Route returns the remaining planned polyline starting at the current
// position. The slice must not be modified.
func (t *Taxi) Route() []roadnet.VertexID {
	if len(t.path) == 0 {
		return nil
	}
	return t.path[t.pos:]
}

// RemainingMeters returns the travel distance left on the current plan,
// i.e. cost(R_tj) measured from the current position — the baseline of the
// detour cost in Eq. 4.
func (t *Taxi) RemainingMeters() float64 {
	if len(t.path) == 0 {
		return 0
	}
	var m float64
	for i := t.pos; i < len(t.costs); i++ {
		m += t.costs[i]
	}
	return m - t.offset
}

// OccupiedSeats returns the seats currently occupied.
func (t *Taxi) OccupiedSeats() int { return t.seats }

// IdleSeats returns the free seats.
func (t *Taxi) IdleSeats() int { return t.Capacity - t.seats }

// Empty reports whether the taxi has no assigned or onboard passengers
// (S_tj = ∅), making it eligible for the empty-taxi path of candidate
// search.
func (t *Taxi) Empty() bool { return len(t.waiting) == 0 && len(t.onboard) == 0 }

// Waiting returns the assigned-but-not-picked-up requests.
func (t *Taxi) Waiting() []*Request { return requestSlice(t.waiting) }

// Onboard returns the picked-up requests.
func (t *Taxi) Onboard() []*Request { return requestSlice(t.onboard) }

func requestSlice(m map[RequestID]*Request) []*Request {
	out := make([]*Request, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	return out
}

// MobilityVector returns the taxi's mobility vector per §IV-B2: from the
// current position toward the centroid of its passengers' destinations.
// ok is false for empty taxis, which have no travel destination and are
// not mobility-clustered.
func (t *Taxi) MobilityVector() (geo.MobilityVector, bool) {
	if t.Empty() {
		return geo.MobilityVector{}, false
	}
	// The centroid is a float sum, so its last bit depends on the order of
	// the terms: sum in ascending request-ID order, never in map order, or a
	// recovered taxi with three riders can come back one ulp off.
	var rbuf [8]*Request
	reqs := rbuf[:0]
	for _, r := range t.waiting {
		reqs = append(reqs, r)
	}
	for _, r := range t.onboard {
		reqs = append(reqs, r)
	}
	slices.SortFunc(reqs, func(a, b *Request) int { return cmp.Compare(a.ID, b.ID) })
	var pbuf [8]geo.Point
	dests := pbuf[:0]
	for _, r := range reqs {
		dests = append(dests, r.DestPt)
	}
	return geo.NewMobilityVector(t.Point(), geo.Centroid(dests)), true
}

// SetPlan installs a new schedule and its route legs. legs[i] is the
// travel path from the previous event's vertex (legs[0] from NextVertex())
// to events[i].Vertex(); each leg's first vertex must equal the previous
// leg's last. The taxi's committed mid-edge progress is preserved by
// prepending the committed edge. Events for requests the taxi doesn't yet
// know are registered as waiting.
//
// A plan with no events but a non-empty single leg is a cruise (used by
// probabilistic seeking of offline passengers); SetPlan(nil, nil) parks
// the taxi.
func (t *Taxi) SetPlan(events []Event, legs [][]roadnet.VertexID) error {
	start := t.NextVertex()
	if len(legs) != len(events) && !(len(events) == 0 && len(legs) <= 1) {
		return fmt.Errorf("fleet: taxi %d: %d legs for %d events", t.ID, len(legs), len(events))
	}
	// Stitch legs into one polyline.
	newPath := []roadnet.VertexID{start}
	eventPos := make([]int, 0, len(events))
	for i, leg := range legs {
		if len(leg) == 0 {
			return fmt.Errorf("fleet: taxi %d: empty leg %d", t.ID, i)
		}
		if leg[0] != newPath[len(newPath)-1] {
			return fmt.Errorf("fleet: taxi %d: leg %d starts at %d, want %d",
				t.ID, i, leg[0], newPath[len(newPath)-1])
		}
		newPath = append(newPath, leg[1:]...)
		if i < len(events) {
			if end := leg[len(leg)-1]; end != events[i].Vertex() {
				return fmt.Errorf("fleet: taxi %d: leg %d ends at %d, event at %d",
					t.ID, i, end, events[i].Vertex())
			}
			eventPos = append(eventPos, len(newPath)-1)
		}
	}
	// Preserve the committed edge when mid-edge.
	var prefix []roadnet.VertexID
	var prefixOffset float64
	if t.offset > 0 && t.pos+1 < len(t.path) {
		prefix = []roadnet.VertexID{t.path[t.pos]}
		prefixOffset = t.offset
		for i := range eventPos {
			eventPos[i]++
		}
	}
	full := append(prefix, newPath...)
	costs := make([]float64, len(full)-1)
	for i := 0; i+1 < len(full); i++ {
		c, ok := t.g.EdgeCost(full[i], full[i+1])
		if !ok {
			return fmt.Errorf("fleet: taxi %d: plan uses missing edge (%d,%d)", t.ID, full[i], full[i+1])
		}
		costs[i] = c
	}
	// Validate event requests without mutating state, then register.
	seen := make(map[RequestID]bool, len(events))
	hasPickup := make(map[RequestID]bool, len(events))
	for _, e := range events {
		seen[e.Req.ID] = true
		switch e.Kind {
		case Pickup:
			if _, dup := t.onboard[e.Req.ID]; dup {
				return fmt.Errorf("fleet: taxi %d: pickup for onboard request %d", t.ID, e.Req.ID)
			}
			hasPickup[e.Req.ID] = true
		case Dropoff:
			if _, ok := t.onboard[e.Req.ID]; ok {
				continue
			}
			// Dropoff must pair with an earlier pickup in this plan or an
			// already-known waiting request.
			if _, ok := t.waiting[e.Req.ID]; !ok && !hasPickup[e.Req.ID] {
				return fmt.Errorf("fleet: taxi %d: dropoff for unknown request %d", t.ID, e.Req.ID)
			}
		}
	}
	// Every waiting/onboard request must still be covered by the plan.
	for id := range t.waiting {
		if !seen[id] {
			return fmt.Errorf("fleet: taxi %d: plan drops waiting request %d", t.ID, id)
		}
	}
	for id := range t.onboard {
		if !seen[id] {
			return fmt.Errorf("fleet: taxi %d: plan drops onboard request %d", t.ID, id)
		}
	}
	for _, e := range events {
		if e.Kind == Pickup {
			t.waiting[e.Req.ID] = e.Req
		}
	}

	if len(full) < 2 && len(events) == 0 {
		// Parked (possibly with zero-length cruise).
		t.idleAt = start
		t.path = nil
		t.costs = nil
		t.pos = 0
		t.offset = 0
	} else {
		t.path = full
		t.costs = costs
		t.pos = 0
		t.offset = prefixOffset
	}
	t.schedule = events
	t.eventPos = eventPos
	t.nextEvent = 0
	return nil
}

// EventVisit reports an event the taxi just executed during Advance.
type EventVisit struct {
	Event Event
	// MetersIntoTick is the distance travelled within the Advance call
	// before the event fired, letting callers timestamp it exactly.
	MetersIntoTick float64
}

// Advance moves the taxi up to dist meters along its plan, firing schedule
// events as their vertices are reached and returning them in order. Seat
// accounting is updated as events fire. A taxi with no plan stays parked.
func (t *Taxi) Advance(dist float64) []EventVisit {
	var visits []EventVisit
	moved := 0.0
	fire := func() {
		for t.nextEvent < len(t.schedule) && t.eventPos[t.nextEvent] == t.pos {
			e := t.schedule[t.nextEvent]
			t.applyEvent(e)
			visits = append(visits, EventVisit{Event: e, MetersIntoTick: moved})
			t.nextEvent++
		}
	}
	if len(t.path) == 0 {
		return nil
	}
	fire() // events at the current vertex (e.g. pickup at the start)
	for dist > 1e-9 && t.pos+1 < len(t.path) {
		edge := t.costs[t.pos]
		step := math.Min(dist, edge-t.offset)
		t.offset += step
		dist -= step
		moved += step
		t.odometer += step
		if t.offset >= edge-1e-9 {
			t.pos++
			t.offset = 0
			fire()
		}
	}
	if t.pos+1 >= len(t.path) && t.nextEvent >= len(t.schedule) {
		// Plan complete: park at the final vertex.
		t.idleAt = t.path[len(t.path)-1]
		t.path = nil
		t.costs = nil
		t.pos = 0
		t.offset = 0
		t.schedule = nil
		t.eventPos = nil
		t.nextEvent = 0
	}
	return visits
}

func (t *Taxi) applyEvent(e Event) {
	switch e.Kind {
	case Pickup:
		if _, ok := t.waiting[e.Req.ID]; ok {
			delete(t.waiting, e.Req.ID)
			t.onboard[e.Req.ID] = e.Req
			t.seats += e.Req.Passengers
		}
	case Dropoff:
		if _, ok := t.onboard[e.Req.ID]; ok {
			delete(t.onboard, e.Req.ID)
			t.seats -= e.Req.Passengers
		}
	}
}

// EvalParamsAt builds the EvaluateSchedule parameters for this taxi at the
// given simulation time and speed.
func (t *Taxi) EvalParamsAt(nowSeconds, speedMps float64) EvalParams {
	return EvalParams{
		NowSeconds:   nowSeconds,
		SpeedMps:     speedMps,
		Start:        t.NextVertex(),
		LeadMeters:   t.LeadMeters(),
		Capacity:     t.Capacity,
		OnboardSeats: t.seats,
	}
}
