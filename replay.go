package mtshare

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Divergence is one mismatch found by Replay between the recorded log
// and the re-executed run.
type Divergence = replay.Divergence

// ReplayReport is the outcome of replaying a recorded log against the
// current engine.
type ReplayReport struct {
	// Events is the number of recorded events re-executed.
	Events int
	// Divergences lists every recorded/replayed mismatch in event order;
	// empty means the replay was bit-identical.
	Divergences []Divergence
}

// Diverged reports whether the replay produced any mismatch.
func (r *ReplayReport) Diverged() bool { return len(r.Divergences) > 0 }

// First returns the first divergence, or nil when the replay was clean.
// The first divergence is the interesting one: later mismatches are
// usually knock-on effects of the first diverging decision.
func (r *ReplayReport) First() *Divergence {
	if len(r.Divergences) == 0 {
		return nil
	}
	return &r.Divergences[0]
}

// Replay rebuilds the world described by a recorded log's header (same
// seed, options, and fault plan) and verifies the log from event 0
// through the runtime's verifier, the one WAL recovery runs: every
// recorded call is re-executed against the current engine and its fresh
// outcome diffed against the recorded one — assignments, detours, ETAs,
// ride events — and every seal's deterministic counters against the
// runtime's. Nothing is recorded. The reader may be raw JSONL or
// gzip-compressed (detected by magic bytes).
//
// A clean report means the current engine reproduces the recorded run
// bit for bit. A divergence pinpoints the first event whose outcome
// changed — the place to start looking after an engine change.
func Replay(r io.Reader) (*ReplayReport, error) {
	rr, err := maybeGunzip(r)
	if err != nil {
		return nil, err
	}
	h, events, err := replay.ReadAll(rr)
	if err != nil {
		return nil, err
	}
	opts := Options{
		SyntheticCityRows:       h.Rows,
		SyntheticCityCols:       h.Cols,
		Partitions:              h.Partitions,
		SpeedKmh:                h.SpeedKmh,
		SearchRangeMeters:       h.SearchRangeMeters,
		MaxDirectionDiffDegrees: h.MaxDirectionDiffDegrees,
		Policy:                  h.Policy,
		Seed:                    h.Seed,
		Faults:                  h.Faults,
	}
	sys, err := New(opts)
	if err != nil {
		return nil, fmt.Errorf("mtshare: replay: rebuild world: %w", err)
	}
	defer sys.Close()
	if fp := fmt.Sprintf("%016x", sys.rt.Graph.Fingerprint()); h.GraphFingerprint != "" && fp != h.GraphFingerprint {
		return nil, fmt.Errorf("mtshare: replay: log graph fingerprint %s, rebuilt world is %s — the road generator changed, the log cannot be diffed", h.GraphFingerprint, fp)
	}

	var divs []Divergence
	recorded, _ := json.Marshal(h)
	rebuilt, _ := json.Marshal(sys.rt.Header(opts.withDefaults().world()))
	if !bytes.Equal(recorded, rebuilt) {
		divs = append(divs, Divergence{Event: -1, Field: "header", Recorded: string(recorded), Replayed: string(rebuilt)})
	}
	divs = append(divs, sys.rt.Verify(events, 0)...)
	return &ReplayReport{Events: len(events), Divergences: divs}, nil
}

// maybeGunzip sniffs r for the gzip magic and transparently decompresses.
func maybeGunzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("mtshare: replay: read log: %w", err)
	}
	if len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("mtshare: replay: gunzip log: %w", err)
		}
		return zr, nil
	}
	return br, nil
}

// ScenarioNames lists the built-in recordable scenarios, for CLIs.
var ScenarioNames = []string{"uniform", "peakhour"}

// RecordScenario runs one of the built-in golden scenarios with
// recording enabled, writing the log to w (raw JSONL; wrap w in a gzip
// writer to compress). The scenarios are small, fully deterministic
// workloads used for the checked-in golden logs and CI replay gates:
//
//   - "uniform": a 12x12 city (seed 7), 8 taxis, six rounds of
//     uniformly random requests plus street hails with 30 s ticks.
//   - "peakhour": a 12x12 city (seed 8), 10 taxis, the 08:00-09:00
//     window of a synthetic workday trace submitted in release order,
//     with the pending queue enabled (depth 16, retry every 2nd tick) so
//     the golden log covers queued/expired outcomes and batch
//     re-dispatch.
//
// An optional fault plan is threaded into the run (and the log header),
// exercising the deterministic fault-injection layer.
func RecordScenario(name string, w io.Writer, faults *FaultPlan) error {
	switch name {
	case "uniform":
		return recordUniform(w, faults)
	case "peakhour":
		return recordPeakHour(w, faults)
	default:
		return fmt.Errorf("mtshare: unknown scenario %q (have %v)", name, ScenarioNames)
	}
}

func recordUniform(w io.Writer, faults *FaultPlan) error {
	sys, err := New(Options{
		SyntheticCityRows: 12,
		SyntheticCityCols: 12,
		Seed:              7,
		RecordTo:          w,
		Faults:            faults,
	})
	if err != nil {
		return err
	}
	min, max := sys.Bounds()
	rng := rand.New(rand.NewSource(7))
	randPt := func() Point {
		return Point{
			Lat: min.Lat + rng.Float64()*(max.Lat-min.Lat),
			Lng: min.Lng + rng.Float64()*(max.Lng-min.Lng),
		}
	}
	ctx := context.Background()
	const nTaxis = 8
	for i := 0; i < nTaxis; i++ {
		sys.AddTaxi(randPt(), 3)
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 6; i++ {
			sys.SubmitRequest(ctx, randPt(), randPt(), 1.3)
		}
		sys.ReportStreetHail(ctx, TaxiID(1+rng.Intn(nTaxis)), randPt(), randPt(), 1.5)
		sys.Advance(30 * time.Second)
	}
	sys.Advance(5 * time.Minute)
	return sys.Close()
}

func recordPeakHour(w io.Writer, faults *FaultPlan) error {
	sys, err := New(Options{
		SyntheticCityRows: 12,
		SyntheticCityCols: 12,
		Seed:              8,
		Policy:            Policy{QueueDepth: 16, RetryEveryTicks: 2},
		RecordTo:          w,
		Faults:            faults,
	})
	if err != nil {
		return err
	}
	min, max := sys.Bounds()
	ds, err := trace.Generate(trace.Workday, trace.GenParams{
		Center:           geo.Midpoint(min, max),
		ExtentMeters:     geo.Equirect(Point{Lat: min.Lat, Lng: min.Lng}, Point{Lat: min.Lat, Lng: max.Lng}),
		TripsPerHourPeak: 60,
		UniformFrac:      0.25,
		Seed:             42,
	})
	if err != nil {
		return err
	}
	trips := ds.Between(8*time.Hour, 9*time.Hour)
	if len(trips) > 48 {
		trips = trips[:48]
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		at := Point{
			Lat: min.Lat + rng.Float64()*(max.Lat-min.Lat),
			Lng: min.Lng + rng.Float64()*(max.Lng-min.Lng),
		}
		sys.AddTaxi(at, 4)
	}
	// Submit in release order, advancing the clock to each trip's
	// offset into the hour (rounded to whole seconds so ticks are tidy).
	prev := time.Duration(0)
	for _, tr := range trips {
		rel := (tr.ReleaseAt - 8*time.Hour).Truncate(time.Second)
		if d := rel - prev; d > 0 {
			sys.Advance(d)
			prev = rel
		}
		sys.SubmitRequest(ctx, tr.Origin, tr.Dest, 1.3)
	}
	sys.Advance(10 * time.Minute)
	return sys.Close()
}
