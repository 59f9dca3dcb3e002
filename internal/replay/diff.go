package replay

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Divergence is one mismatch between a recorded event and its replayed
// counterpart. Event is the event index (-1 for header/stream-level
// mismatches); Field names the diverging quantity; Recorded and
// Replayed carry the two values rendered for the report.
type Divergence struct {
	Event    int64  `json:"event"`
	Field    string `json:"field"`
	Recorded string `json:"recorded"`
	Replayed string `json:"replayed"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("event #%d %s: recorded %s, replayed %s", d.Event, d.Field, d.Recorded, d.Replayed)
}

// fieldDiff appends a divergence when the rendered values differ.
func fieldDiff(divs []Divergence, i int64, field string, rec, act any) []Divergence {
	r, a := render(rec), render(act)
	if r != a {
		divs = append(divs, Divergence{Event: i, Field: field, Recorded: r, Replayed: a})
	}
	return divs
}

func render(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		// Shortest round-trip form, same as the log encoding.
		b, _ := json.Marshal(x)
		return string(b)
	default:
		return fmt.Sprint(v)
	}
}

// DiffEvents compares a recorded event against its replayed counterpart
// and returns every field-level divergence. Inputs (coordinates,
// flexibility, tick length) are assumed identical — the replayer feeds
// the recorded inputs back in — so only outcomes are compared; kind
// mismatches are reported as a single structural divergence.
func DiffEvents(rec, act *Event) []Divergence {
	if rec.Kind() != act.Kind() {
		return []Divergence{{Event: rec.I, Field: "kind", Recorded: rec.Kind(), Replayed: act.Kind()}}
	}
	var divs []Divergence
	i := rec.I
	switch {
	case rec.AddTaxi != nil:
		divs = fieldDiff(divs, i, "add_taxi.err", rec.AddTaxi.Err, act.AddTaxi.Err)
		divs = fieldDiff(divs, i, "add_taxi.taxi", rec.AddTaxi.Taxi, act.AddTaxi.Taxi)
	case rec.Request != nil:
		r, a := rec.Request.Out, act.Request.Out
		divs = fieldDiff(divs, i, "request.err", r.Err, a.Err)
		divs = fieldDiff(divs, i, "request.id", r.Request, a.Request)
		divs = fieldDiff(divs, i, "request.taxi", r.Taxi, a.Taxi)
		divs = fieldDiff(divs, i, "request.candidates", r.Candidates, a.Candidates)
		divs = fieldDiff(divs, i, "request.detour_m", r.DetourMeters, a.DetourMeters)
		divs = fieldDiff(divs, i, "request.pickup_eta_ns", r.PickupETANanos, a.PickupETANanos)
		divs = fieldDiff(divs, i, "request.dropoff_eta_ns", r.DropoffETANanos, a.DropoffETANanos)
		divs = fieldDiff(divs, i, "request.fare", r.FareEstimate, a.FareEstimate)
	case rec.Hail != nil:
		divs = fieldDiff(divs, i, "hail.err", rec.Hail.Out.Err, act.Hail.Out.Err)
		divs = fieldDiff(divs, i, "hail.served_by", rec.Hail.Out.ServedBy, act.Hail.Out.ServedBy)
	case rec.Tick != nil:
		divs = append(divs, diffSeq(i, "tick.rides", rec.Tick.Rides, act.Tick.Rides, renderRide)...)
		divs = append(divs, diffSeq(i, "tick.queue_matched", rec.Tick.QueueMatched, act.Tick.QueueMatched, renderQueueMatch)...)
		divs = append(divs, diffSeq(i, "tick.queue_expired", rec.Tick.QueueExpired, act.Tick.QueueExpired, renderID)...)
	case rec.Metrics != nil:
		divs = append(divs, DiffCounters(i, rec.Metrics.Counters, act.Metrics.Counters)...)
	}
	return divs
}

// diffSeq diffs two sequences element by element over their common
// prefix, naming element k field[k] and rendering it with show, then
// their lengths as field.len.
func diffSeq[T comparable](i int64, field string, rec, act []T, show func(T) string) []Divergence {
	var divs []Divergence
	for k := range min(len(rec), len(act)) {
		if rec[k] != act[k] {
			divs = append(divs, Divergence{
				Event:    i,
				Field:    fmt.Sprintf("%s[%d]", field, k),
				Recorded: show(rec[k]),
				Replayed: show(act[k]),
			})
		}
	}
	if len(rec) != len(act) {
		divs = append(divs, Divergence{
			Event:    i,
			Field:    field + ".len",
			Recorded: fmt.Sprint(len(rec)),
			Replayed: fmt.Sprint(len(act)),
		})
	}
	return divs
}

func renderQueueMatch(m QueueMatch) string {
	s := fmt.Sprintf("req=%d taxi=%d wait=%dns", m.Request, m.Taxi, m.WaitNanos)
	if m.Conflict {
		s += " conflict"
	}
	return s
}

func renderID(id int64) string { return fmt.Sprint(id) }

func renderRide(r Ride) string {
	kind := "dropoff"
	if r.Pickup {
		kind = "pickup"
	}
	return fmt.Sprintf("%s req=%d taxi=%d at=%dns", kind, r.Request, r.Taxi, r.AtNanos)
}

// DiffCounters compares two counter maps over the union of their keys.
func DiffCounters(i int64, rec, act map[string]int64) []Divergence {
	keys := make(map[string]bool, len(rec)+len(act))
	for k := range rec {
		keys[k] = true
	}
	for k := range act {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var divs []Divergence
	for _, name := range names {
		if rec[name] != act[name] {
			divs = append(divs, Divergence{
				Event:    i,
				Field:    "metrics." + name,
				Recorded: fmt.Sprint(rec[name]),
				Replayed: fmt.Sprint(act[name]),
			})
		}
	}
	return divs
}
