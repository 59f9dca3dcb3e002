// Package replay defines the deterministic record/replay substrate of
// the reproduction: a versioned JSONL log format capturing a full run —
// seed, world options, road-graph fingerprint, and the ordered stream of
// facade events (AddTaxi / SubmitRequest / ReportStreetHail / Advance)
// with their outcomes — plus the machinery to re-execute such a log
// against the current engine and report the first divergence, and a
// deterministic fault-injection layer (router faults, latency spikes,
// context cancellations, forced shutdown) configurable from the log
// header.
//
// The format is line-oriented JSON with stable field order (struct
// marshalling; map keys sort), so logs diff cleanly, compress well, and
// a golden log checked into testdata stays byte-stable across runs of
// the same engine. Line 1 is the Header; every following line is one
// Event. Outcome floats round-trip exactly (Go marshals float64 in
// shortest form that parses back to the same bits), so replay
// comparison is exact, not approximate.
package replay

import (
	"fmt"
)

// Version is the current log format version, and the only one the
// decoder reads.
//
// Version history:
//   - 1: initial format.
//   - 2: pending-request queue — Header gains queue_depth /
//     retry_every_ticks, RequestOutcome.Err gains the "queued" and
//     "queue_full" codes, TickEvent gains queue_matched / queue_expired.
//   - 3: sharded dispatcher — Header gains shards / border_policy and the
//     sealed counters include a per-shard counter family. The sharded
//     dispatcher has since been removed: a version-3 log of an unsharded
//     run replays unchanged, and Validate refuses a log recorded sharded.
//     Version-2 logs are refused too; every log this build records, both
//     goldens included, is version 3.
const Version = 3

// KindSystem is the log kind of a facade run, the only kind this build
// records or replays.
const KindSystem = "system"

// Header is the first line of a log: everything needed to rebuild the
// world the events ran against. The service runtime assembles it from the
// recording shell's World and its own Policy; encoding/json promotes the
// embedded fields in place, so the line reads as one flat object.
type Header struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	World
	Policy
	// Shards and BorderPolicy are read only so that Validate can refuse a
	// log recorded by a sharded dispatcher: its sealed counters carry
	// shard-labelled series one engine cannot reproduce. Nothing writes
	// them any more.
	Shards       int    `json:"shards,omitempty"`
	BorderPolicy string `json:"border_policy,omitempty"`
	// GraphFingerprint is the hex fingerprint of the road graph the run
	// used; replay refuses to diff against a different graph.
	GraphFingerprint string `json:"graph_fp,omitempty"`
	// Faults configures the deterministic fault-injection layer for the
	// run. A replay applies the same plan, so fault-injected runs are
	// reproducible bit for bit.
	Faults *FaultPlan `json:"faults,omitempty"`
}

// World is the half of a header that regenerates the city and the
// engine's geometry. Each shell fills it from its own configuration; a
// zero field is one the shell leaves to the runtime's defaults.
type World struct {
	Seed                    int64   `json:"seed"`
	Rows                    int     `json:"rows,omitempty"`
	Cols                    int     `json:"cols,omitempty"`
	Partitions              int     `json:"partitions,omitempty"`
	SpeedKmh                float64 `json:"speed_kmh,omitempty"`
	SearchRangeMeters       float64 `json:"search_range_m,omitempty"`
	MaxDirectionDiffDegrees float64 `json:"max_direction_deg,omitempty"`
}

// Policy is the dispatch policy: the knobs that change which requests a
// run serves. A replay must rebuild the same policy, so it travels in the
// header; omitempty keeps logs recorded without a knob byte-stable.
type Policy struct {
	// Probabilistic enables the mT-Share_pro behaviour: probabilistic
	// routing for taxis with spare seats and demand-seeking cruising of
	// idle taxis.
	Probabilistic bool `json:"probabilistic,omitempty"`
	// QueueDepth bounds the pending-request queue. When positive, a
	// request that finds no feasible taxi is parked and re-dispatched in
	// deterministic batches on later ticks until it is served or its
	// pickup deadline passes; a full queue rejects. Zero disables
	// queueing: a dispatch failure is terminal.
	QueueDepth int `json:"queue_depth,omitempty"`
	// RetryEveryTicks runs the queue's batch re-dispatch on every Nth
	// tick (0 and 1 both mean every tick). Expired requests are evicted
	// on every tick regardless.
	RetryEveryTicks int `json:"retry_every_ticks,omitempty"`
	// BatchAssign runs the queue's retry rounds as a global min-cost
	// assignment over the full (request, taxi) cost graph instead of
	// greedy deadline-order commits, so a parked request can yield its
	// first-choice taxi to a tighter competitor (see
	// match.Config.BatchAssign). Deterministic at every parallelism.
	BatchAssign bool `json:"batch_assign,omitempty"`
}

// Validate reports whether the queue knobs are coherent.
func (p Policy) Validate() error {
	switch {
	case p.QueueDepth < 0:
		return fmt.Errorf("queue depth %d must not be negative", p.QueueDepth)
	case p.RetryEveryTicks < 0:
		return fmt.Errorf("retry interval %d ticks must not be negative", p.RetryEveryTicks)
	case p.RetryEveryTicks > 0 && p.QueueDepth == 0:
		return fmt.Errorf("RetryEveryTicks %d requires QueueDepth > 0", p.RetryEveryTicks)
	}
	return nil
}

// Validate reports whether the header can drive a replay.
func (h *Header) Validate() error {
	if h.Version != Version {
		return fmt.Errorf("replay: log version %d, this build reads version %d", h.Version, Version)
	}
	if h.Kind != KindSystem {
		return fmt.Errorf("replay: unknown log kind %q", h.Kind)
	}
	if h.Shards > 1 || h.BorderPolicy != "" {
		return fmt.Errorf("replay: log recorded by a sharded dispatcher (shards %d, border policy %q); the sharded dispatcher was removed and one engine cannot replay it", h.Shards, h.BorderPolicy)
	}
	if h.Faults != nil {
		if err := h.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Point is a geographic location in the log.
type Point struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// Event is one line of the log: the event index plus exactly one of the
// typed payloads.
type Event struct {
	I       int64          `json:"i"`
	AddTaxi *AddTaxiEvent  `json:"add_taxi,omitempty"`
	Request *RequestEvent  `json:"request,omitempty"`
	Hail    *HailEvent     `json:"hail,omitempty"`
	Tick    *TickEvent     `json:"tick,omitempty"`
	Metrics *MetricsRecord `json:"metrics,omitempty"`
}

// Kind names the payload carried by the event ("" when none is set).
func (e *Event) Kind() string {
	switch {
	case e.AddTaxi != nil:
		return "add_taxi"
	case e.Request != nil:
		return "request"
	case e.Hail != nil:
		return "hail"
	case e.Tick != nil:
		return "tick"
	case e.Metrics != nil:
		return "metrics"
	}
	return ""
}

// AddTaxiEvent records a taxi registration and its outcome.
type AddTaxiEvent struct {
	At       Point `json:"at"`
	Capacity int   `json:"capacity"`
	// Outcome.
	Taxi int64  `json:"taxi,omitempty"`
	Err  string `json:"err,omitempty"`
}

// RequestEvent records one SubmitRequest call.
type RequestEvent struct {
	Pickup      Point          `json:"pickup"`
	Dropoff     Point          `json:"dropoff"`
	Flexibility float64        `json:"flex,omitempty"`
	Out         RequestOutcome `json:"out"`
}

// RequestOutcome is the recorded result of a dispatch: the error code
// (empty on success), the assignment identifiers, and the decision
// quantities the replayer diffs. With the pending queue enabled, an
// unmatched request parks instead of failing: Err is "queued" (the
// request ID is still assigned) or "queue_full" when backpressure
// rejected it.
type RequestOutcome struct {
	Err             string  `json:"err,omitempty"`
	Request         int64   `json:"request,omitempty"`
	Taxi            int64   `json:"taxi,omitempty"`
	Candidates      int     `json:"candidates,omitempty"`
	DetourMeters    float64 `json:"detour_m,omitempty"`
	PickupETANanos  int64   `json:"pickup_eta_ns,omitempty"`
	DropoffETANanos int64   `json:"dropoff_eta_ns,omitempty"`
	FareEstimate    float64 `json:"fare,omitempty"`
}

// HailEvent records one ReportStreetHail call.
type HailEvent struct {
	Taxi        int64       `json:"taxi"`
	Pickup      Point       `json:"pickup"`
	Dropoff     Point       `json:"dropoff"`
	Flexibility float64     `json:"flex,omitempty"`
	Out         HailOutcome `json:"out"`
}

// HailOutcome is the recorded result of a street hail.
type HailOutcome struct {
	Err      string `json:"err,omitempty"`
	ServedBy int64  `json:"served_by,omitempty"`
}

// TickEvent records one Advance call and the ride events it fired, plus
// — when the pending queue is enabled — the queued requests the tick's
// retry round matched and those it evicted as expired.
type TickEvent struct {
	DNanos       int64        `json:"d_ns"`
	Rides        []Ride       `json:"rides,omitempty"`
	QueueMatched []QueueMatch `json:"queue_matched,omitempty"`
	QueueExpired []int64      `json:"queue_expired,omitempty"`
}

// QueueMatch is one queued request matched by a tick's batch re-dispatch.
type QueueMatch struct {
	Request int64 `json:"request"`
	Taxi    int64 `json:"taxi"`
	// WaitNanos is the queued-to-matched delay in simulation time.
	WaitNanos int64 `json:"wait_ns,omitempty"`
	// Conflict marks a match that needed re-dispatch after an earlier
	// commit of the same batch took its first-choice taxi.
	Conflict bool `json:"conflict,omitempty"`
}

// Ride is one pickup or dropoff fired during a tick.
type Ride struct {
	Request int64 `json:"request"`
	Taxi    int64 `json:"taxi"`
	Pickup  bool  `json:"pickup,omitempty"`
	AtNanos int64 `json:"at_ns"`
}

// MetricsRecord closes a log with the run's deterministic counters
// (the mtshare_match_* / mtshare_index_* families; timing
// histograms and scheduling-order-dependent cache counters are excluded
// by the recorder). JSON marshalling sorts map keys, so the record is
// byte-stable.
type MetricsRecord struct {
	Counters map[string]int64 `json:"counters"`
}

// DeterministicCounterPrefixes lists the instrument families whose
// values are a pure function of the event stream: dispatch pipeline and
// partition-index counters. Router cache counters
// (hit/miss/dedup split depends on worker interleaving) and every
// histogram (wall-clock) are intentionally absent.
var DeterministicCounterPrefixes = []string{
	"mtshare_match_",
	"mtshare_index_",
}

// DeterministicCounters filters a counters map down to the families in
// DeterministicCounterPrefixes.
func DeterministicCounters(counters map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range counters {
		for _, p := range DeterministicCounterPrefixes {
			if len(name) >= len(p) && name[:len(p)] == p {
				out[name] = v
				break
			}
		}
	}
	return out
}
