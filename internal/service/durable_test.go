package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/replay"
	"repro/internal/wal"
)

// testConfig is the small world every runtime test runs in: a queue, and
// a fault plan whose router faults and cancellations recovery must
// re-inject exactly.
func testConfig() Config {
	return Config{
		Rows: 8, Cols: 8, Seed: 5,
		HistoryTripsPerHour: 300,
		PartitionSeed:       5,
		Match:               match.DefaultConfig(),
		Policy:              replay.Policy{QueueDepth: 8, RetryEveryTicks: 1},
		Faults:              &replay.FaultPlan{Seed: 3, UnreachableEvery: 9, CancelEvery: 7},
	}
}

// testWorld is the world half of the test world's header.
func testWorld() replay.World {
	cfg := testConfig()
	return replay.World{Seed: cfg.Seed, Rows: cfg.Rows, Cols: cfg.Cols}
}

// open builds the test world over the WAL in dir, recovering whatever the
// directory holds.
func open(t *testing.T, dir string, snapEvery int) (*Runtime, error) {
	t.Helper()
	r, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r, r.OpenWAL(wal.Options{Dir: dir, SyncEvery: 1, SnapshotEveryTicks: snapEvery}, testWorld())
}

func mustOpen(t *testing.T, dir string, snapEvery int) *Runtime {
	t.Helper()
	r, err := open(t, dir, snapEvery)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return r
}

// drive runs deterministic operations from..to-1: each is a pure function
// of its index, covering every operation and every refusal a caller can
// provoke (a cancelled context, an invalid ride, an unknown taxi).
func drive(r *Runtime, from, to int) {
	lo, hi := r.Graph.Bounds()
	for k := from; k < to; k++ {
		rng := rand.New(rand.NewSource(int64(1000 + k)))
		pt := func() geo.Point {
			return geo.Point{Lat: lo.Lat + rng.Float64()*(hi.Lat-lo.Lat), Lng: lo.Lng + rng.Float64()*(hi.Lng-lo.Lng)}
		}
		ctx := context.Background()
		switch {
		case k < 6:
			r.AddTaxi(pt(), 3)
		case k%5 == 4:
			r.Tick(30*time.Second, false)
		case k%13 == 7:
			r.Hail(ctx, 1+rng.Int63n(8), r.NewRide(pt(), pt(), 1.5))
		case k%19 == 3:
			p := pt()
			r.Submit(ctx, r.NewRide(p, p, 1.3))
		case k%17 == 11:
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			r.Submit(cctx, r.NewRide(pt(), pt(), 1.3))
		default:
			r.Submit(ctx, r.NewRide(pt(), pt(), 2))
		}
	}
}

func state(t *testing.T, r *Runtime) string {
	t.Helper()
	b, err := json.Marshal(r.Capture())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// copyWAL clones a WAL directory, with or without its snapshots.
func copyWAL(t *testing.T, src string, snapshots bool) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") && !snapshots {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurableSnapshotRecoveryMatchesGenesis abandons a live runtime at
// three points, each past a newer snapshot, and requires both recoveries
// of the directory — latest snapshot plus tail, and genesis replay of the
// segments alone — to rebuild exactly the state the live runtime holds.
func TestDurableSnapshotRecoveryMatchesGenesis(t *testing.T) {
	dir := t.TempDir()
	live := mustOpen(t, dir, 2)
	seen := map[int64]bool{}
	prev := 0
	for _, upTo := range []int{15, 28, 41} {
		drive(live, prev, upTo)
		prev = upTo
		live.WaitSnapshots()
		w := live.WAL().Stats().LastSnapshotEvents
		if w == 0 || seen[w] {
			t.Fatalf("after op %d the latest snapshot is at watermark %d; want a new one", upTo, w)
		}
		seen[w] = true
		want := state(t, live)
		for _, snapshots := range []bool{true, false} {
			r := mustOpen(t, copyWAL(t, dir, snapshots), 2)
			if got := state(t, r); got != want {
				t.Fatalf("watermark %d, snapshots=%v: recovered state differs:\n got %s\nwant %s", w, snapshots, got, want)
			}
			if err := r.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// rewriteWAL writes header h and events as a fresh WAL in a new directory.
func rewriteWAL(t *testing.T, h replay.Header, events []replay.Event) string {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := replay.NewEncoder(l.AppendWriter(), h)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		enc.Encode(ev)
	}
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func readWAL(t *testing.T, dir string) (replay.Header, []replay.Event) {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h, events, err := replay.ReadAll(l.NewReader())
	if err != nil {
		t.Fatal(err)
	}
	return h, events
}

// TestDurableTamperedTailFailsRecovery changes one recorded outcome in
// the tail and requires recovery to refuse the log, naming that event.
func TestDurableTamperedTailFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	live := mustOpen(t, dir, 0)
	drive(live, 0, 30)
	if err := live.Seal(); err != nil {
		t.Fatal(err)
	}
	h, events := readWAL(t, dir)
	if _, err := open(t, rewriteWAL(t, h, events), 0); err != nil {
		t.Fatalf("an untampered copy must recover: %v", err)
	}
	k := 20
	for events[k].Request == nil {
		k++
	}
	events[k].Request.Out.Candidates++
	_, err := open(t, rewriteWAL(t, h, events), 0)
	if want := fmt.Sprintf("event #%d request.candidates", events[k].I); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery of a tampered log: err = %v, want it to name %q", err, want)
	}
}

// TestDurableSkipsForeignSnapshot plants the newest snapshot with another
// world's header and different state; recovery must skip it and replay
// the log, which is the truth.
func TestDurableSkipsForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	live := mustOpen(t, dir, 0)
	drive(live, 0, 24)
	want := state(t, live)
	foreign := live.Capture()
	if err := live.Seal(); err != nil {
		t.Fatal(err)
	}
	foreign.Header = json.RawMessage(`{"version":3,"kind":"system","seed":99}`)
	foreign.Now += 3600
	l, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshotJSON(foreign.Events, foreign); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r, err := open(t, dir, 0)
	if err != nil {
		t.Fatalf("recovery must skip a snapshot with another header: %v", err)
	}
	if got := state(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

// TestDurableRecordAndWALAgree runs with the replay log and the WAL both
// on: the two streams must carry identical lines, header and seal
// included.
func TestDurableRecordAndWALAgree(t *testing.T) {
	dir := t.TempDir()
	r, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := r.RecordTo(&rec, testWorld()); err != nil {
		t.Fatal(err)
	}
	if err := r.OpenWAL(wal.Options{Dir: dir, SyncEvery: 1, SnapshotEveryTicks: 2}, testWorld()); err != nil {
		t.Fatal(err)
	}
	drive(r, 0, 30)
	if err := r.Seal(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	logged, err := io.ReadAll(l.NewReader())
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(logged, []byte("\n")); lines != 32 {
		t.Fatalf("WAL holds %d lines, want header + 30 events + seal", lines)
	}
	if !bytes.Equal(logged, rec.Bytes()) {
		t.Fatalf("replay log and WAL differ:\n log %s\n wal %s", rec.Bytes(), logged)
	}
}
