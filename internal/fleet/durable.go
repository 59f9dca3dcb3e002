// Durable state: a deterministic, JSON-serializable capture of a taxi
// for the WAL snapshot layer. Capture records exactly the
// fields whose values cannot be recomputed (positions, progress,
// schedules, seat/odometer accounting, membership); restore rebuilds the
// derived ones (edge costs) from the graph, so a restored taxi is
// field-for-field identical to the captured one. Float fields round-trip
// exactly through encoding/json's shortest-form encoding.
package fleet

import (
	"fmt"
	"sort"

	"repro/internal/roadnet"
)

// ScheduleEntry is one pending schedule event, identified by request and
// kind; the request body itself lives in the snapshot's request table.
type ScheduleEntry struct {
	Req    int64 `json:"req"`
	Pickup bool  `json:"pickup,omitempty"`
}

// TaxiState is the serializable form of a Taxi. The plan is stored
// trimmed to its remaining suffix: Path is the polyline from the current
// position, EventPos indexes into it, and already-fired schedule events
// are dropped, so a restored taxi resumes at pos 0 with identical
// remaining motion. Edge costs are recomputed from the graph on restore.
type TaxiState struct {
	ID       int64           `json:"id"`
	Capacity int             `json:"capacity"`
	Path     []int64         `json:"path,omitempty"`
	Offset   float64         `json:"offset,omitempty"`
	Schedule []ScheduleEntry `json:"schedule,omitempty"`
	EventPos []int           `json:"event_pos,omitempty"`
	IdleAt   int64           `json:"idle_at"`
	Seats    int             `json:"seats,omitempty"`
	Odometer float64         `json:"odometer,omitempty"`
	Waiting  []int64         `json:"waiting,omitempty"`
	Onboard  []int64         `json:"onboard,omitempty"`
}

func sortedRequestIDs(m map[RequestID]*Request) []int64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]int64, 0, len(m))
	for id := range m {
		out = append(out, int64(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DurableState serializes the taxi.
func (t *Taxi) DurableState() TaxiState {
	st := TaxiState{
		ID:       t.ID,
		Capacity: t.Capacity,
		IdleAt:   int64(t.idleAt),
		Seats:    t.seats,
		Odometer: t.odometer,
		Waiting:  sortedRequestIDs(t.waiting),
		Onboard:  sortedRequestIDs(t.onboard),
	}
	if len(t.path) > 0 {
		rem := t.path[t.pos:]
		st.Path = make([]int64, len(rem))
		for i, v := range rem {
			st.Path[i] = int64(v)
		}
		st.Offset = t.offset
	}
	if t.nextEvent < len(t.schedule) {
		for k := t.nextEvent; k < len(t.schedule); k++ {
			kind := t.schedule[k].Kind == Pickup
			st.Schedule = append(st.Schedule, ScheduleEntry{Req: int64(t.schedule[k].Req.ID), Pickup: kind})
			st.EventPos = append(st.EventPos, t.eventPos[k]-t.pos)
		}
	}
	return st
}

// RestoreTaxi rebuilds a taxi from its serialized form. resolve maps
// request IDs to the (already restored) shared Request objects so that
// schedule, waiting, and onboard references alias the same instances the
// engine holds.
func RestoreTaxi(g *roadnet.Graph, st TaxiState, resolve func(RequestID) (*Request, bool)) (*Taxi, error) {
	t := NewTaxi(g, st.ID, st.Capacity, roadnet.VertexID(st.IdleAt))
	t.seats = st.Seats
	t.odometer = st.Odometer
	for _, id := range st.Waiting {
		r, ok := resolve(RequestID(id))
		if !ok {
			return nil, fmt.Errorf("fleet: taxi %d: unknown waiting request %d", st.ID, id)
		}
		t.waiting[RequestID(id)] = r
	}
	for _, id := range st.Onboard {
		r, ok := resolve(RequestID(id))
		if !ok {
			return nil, fmt.Errorf("fleet: taxi %d: unknown onboard request %d", st.ID, id)
		}
		t.onboard[RequestID(id)] = r
	}
	if len(st.Schedule) != len(st.EventPos) {
		return nil, fmt.Errorf("fleet: taxi %d: %d schedule entries, %d positions", st.ID, len(st.Schedule), len(st.EventPos))
	}
	if len(st.Path) > 0 {
		path := make([]roadnet.VertexID, len(st.Path))
		for i, v := range st.Path {
			path[i] = roadnet.VertexID(v)
		}
		costs := make([]float64, len(path)-1)
		for i := 0; i+1 < len(path); i++ {
			c, ok := g.EdgeCost(path[i], path[i+1])
			if !ok {
				return nil, fmt.Errorf("fleet: taxi %d: restored plan uses missing edge (%d,%d)", st.ID, path[i], path[i+1])
			}
			costs[i] = c
		}
		if st.Offset < 0 || (len(costs) > 0 && st.Offset >= costs[0]) || (len(costs) == 0 && st.Offset != 0) {
			return nil, fmt.Errorf("fleet: taxi %d: offset %v out of range", st.ID, st.Offset)
		}
		t.path = path
		t.costs = costs
		t.offset = st.Offset
	} else if len(st.Schedule) > 0 {
		return nil, fmt.Errorf("fleet: taxi %d: schedule without a path", st.ID)
	}
	for i, e := range st.Schedule {
		r, ok := resolve(RequestID(e.Req))
		if !ok {
			return nil, fmt.Errorf("fleet: taxi %d: unknown scheduled request %d", st.ID, e.Req)
		}
		kind := Dropoff
		if e.Pickup {
			kind = Pickup
		}
		p := st.EventPos[i]
		if p < 0 || p >= len(t.path) {
			return nil, fmt.Errorf("fleet: taxi %d: event position %d outside path", st.ID, p)
		}
		if i > 0 && p < st.EventPos[i-1] {
			return nil, fmt.Errorf("fleet: taxi %d: event positions decrease", st.ID)
		}
		t.schedule = append(t.schedule, Event{Req: r, Kind: kind})
		t.eventPos = append(t.eventPos, p)
	}
	return t, nil
}
