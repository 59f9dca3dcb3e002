package mtshare

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/wal"
)

// durableBaseOptions is the small world every durability test runs in.
func durableBaseOptions() Options {
	return Options{
		SyntheticCityRows: 8,
		SyntheticCityCols: 8,
		Seed:              5,
		Policy:            Policy{QueueDepth: 8, RetryEveryTicks: 1},
	}
}

// opResult is one driven operation's externally visible outcome, in a
// JSON-comparable shape.
type opResult struct {
	Kind    string       `json:"kind"`
	Err     string       `json:"err,omitempty"`
	Taxi    int64        `json:"taxi,omitempty"`
	Out     Assignment   `json:"out,omitempty"`
	Rides   []RideEvent  `json:"rides,omitempty"`
	Queue   QueueOutcome `json:"queue,omitempty"`
	ServeBy int64        `json:"serve_by,omitempty"`
}

// driveOp executes deterministic operation k against the system. The op
// schedule is a pure function of k, so any two systems driven over the
// same index range see exactly the same inputs.
func driveOp(s *System, k int) opResult {
	rng := rand.New(rand.NewSource(int64(1000 + k)))
	min, max := s.Bounds()
	pt := func() Point {
		return Point{
			Lat: min.Lat + rng.Float64()*(max.Lat-min.Lat),
			Lng: min.Lng + rng.Float64()*(max.Lng-min.Lng),
		}
	}
	ctx := context.Background()
	switch {
	case k < 6:
		id, err := s.AddTaxi(pt(), 3)
		return opResult{Kind: "add_taxi", Taxi: int64(id), Err: errCode(err)}
	case k%5 == 4:
		rides, qo := s.AdvanceWithQueue(30 * time.Second)
		return opResult{Kind: "tick", Rides: rides, Queue: qo}
	case k%13 == 7:
		served, err := s.ReportStreetHail(ctx, TaxiID(1+rng.Intn(6)), pt(), pt(), 1.5)
		return opResult{Kind: "hail", ServeBy: int64(served), Err: errCode(err)}
	default:
		a, err := s.SubmitRequest(ctx, pt(), pt(), 1.3)
		return opResult{Kind: "request", Out: a, Err: errCode(err)}
	}
}

// errCode maps a facade error onto its replay outcome code.
func errCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrQueued):
		return "queued"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrRequestExpired):
		return "expired"
	case errors.Is(err, ErrNoTaxiAvailable):
		return "no_taxi"
	case errors.Is(err, ErrInvalidRequest):
		return "invalid_request"
	case errors.Is(err, ErrUnknownTaxi):
		return "unknown_taxi"
	case errors.Is(err, ErrShutdown):
		return "shutdown"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "error"
	}
}

func drive(s *System, from, to int) []opResult {
	out := make([]opResult, 0, to-from)
	for k := from; k < to; k++ {
		out = append(out, driveOp(s, k))
	}
	return out
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDurableCrashRecoveryMatrix is the in-process crash matrix: for
// GOMAXPROCS 1 and 2, and three seeded crash points each, a WAL-enabled system is abandoned mid-run
// (never Closed — the in-process equivalent of kill -9, with SyncEvery=1
// so every committed record reached disk), reopened, and the recovered
// state compared byte for byte against the state the abandoned system
// still holds. The recovered system is then driven onward alongside an
// identically configured never-crashed control, and their event streams
// and final states must also match exactly.
func TestDurableCrashRecoveryMatrix(t *testing.T) {
	const totalOps = 36
	for _, parallelism := range []int{1, 2} {
		// Seeding with the GOMAXPROCS value keeps the crash points of the
		// cells CI has always run.
		crashPoints := replay.CrashPoints(int64(parallelism), 3, totalOps-4)
		if len(crashPoints) != 3 {
			t.Fatalf("want 3 crash points, got %v", crashPoints)
		}
		for _, cp := range crashPoints {
			t.Run(asJSON(t, map[string]any{"par": parallelism, "crash": cp}), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parallelism))
				opts := durableBaseOptions()
				opts.Durability = DurabilityOptions{
					Dir:                t.TempDir(),
					SyncEvery:          1,
					SnapshotEveryTicks: 3,
				}
				crashed, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				prefix := drive(crashed, 0, int(cp))

				// The control never crashes and never records.
				ctl, err := New(durableBaseOptions())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := asJSON(t, drive(ctl, 0, int(cp))), asJSON(t, prefix); got != want {
					t.Fatalf("control prefix diverged before any crash:\n got %s\nwant %s", got, want)
				}

				// State of the "dead" process, captured for the diff
				// before the recovering process touches the files.
				want := crashed.rt.Capture()

				recovered, err := New(opts)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				defer recovered.Close()
				got := recovered.rt.Capture()
				if g, w := asJSON(t, got), asJSON(t, want); g != w {
					t.Fatalf("recovered state differs from crashed state:\n got %s\nwant %s", g, w)
				}
				// The candidate search's disc memo is a cache of the searches
				// a process ran, not recovered state.
				stats := func(s *System) Stats {
					st := s.Stats()
					st.IndexMemoryBytes -= s.rt.Engine.DiscMemoBytes()
					return st
				}
				if g, w := asJSON(t, stats(recovered)), asJSON(t, stats(crashed)); g != w {
					t.Fatalf("Stats differ: got %s want %s", g, w)
				}
				if g, w := asJSON(t, recovered.QueueStats()), asJSON(t, crashed.QueueStats()); g != w {
					t.Fatalf("QueueStats differ: got %s want %s", g, w)
				}

				// The recovered system and the control must now produce
				// identical event streams for the same suffix.
				outRec := drive(recovered, int(cp), totalOps)
				outCtl := drive(ctl, int(cp), totalOps)
				if g, w := asJSON(t, outRec), asJSON(t, outCtl); g != w {
					t.Fatalf("post-recovery event stream diverged:\n got %s\nwant %s", g, w)
				}
				finalRec := recovered.rt.Capture()
				finalCtl := ctl.rt.Capture()
				finalRec.Header = nil // the control has no WAL header
				if g, w := asJSON(t, finalRec), asJSON(t, finalCtl); g != w {
					t.Fatalf("final state diverged:\n got %s\nwant %s", g, w)
				}
			})
		}
	}
}

// TestDurableFreshAndSealedReopen covers the non-crash paths: a cleanly
// closed WAL reopens with the counters seal verified, and an empty
// directory starts a fresh log.
func TestDurableFreshAndSealedReopen(t *testing.T) {
	opts := durableBaseOptions()
	opts.Durability = DurabilityOptions{Dir: t.TempDir(), SyncEvery: 1}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.DurabilityStats()
	if !ok {
		t.Fatal("durability stats must be available")
	}
	if st.Records != 1 {
		t.Fatalf("fresh WAL has %d records, want 1 (header)", st.Records)
	}
	drive(s, 0, 12)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := New(opts)
	if err != nil {
		t.Fatalf("reopen after clean close: %v", err)
	}
	if got := reopened.rt.Events(); got != 12 {
		t.Fatalf("reopened at event %d, want 12", got)
	}
	// The reopened system resumes the log.
	drive(reopened, 12, 16)
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableHeaderMismatch proves recovery refuses a WAL recorded under
// different options.
func TestDurableHeaderMismatch(t *testing.T) {
	dir := t.TempDir()
	opts := durableBaseOptions()
	opts.Durability = DurabilityOptions{Dir: dir, SyncEvery: 1}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	drive(s, 0, 8)
	s.Close()

	other := opts
	other.Seed = 6
	if _, err := New(other); err == nil {
		t.Fatal("recovery under a different seed must fail")
	}
}

// TestDurableRecoveryTailSpeed is the acceptance bound: recovering a
// 10k-event WAL tail (no snapshot — the worst case, a full genesis
// replay) must finish in under five seconds.
func TestDurableRecoveryTailSpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-event recovery timing")
	}
	opts := durableBaseOptions()
	opts.QueueDepth = 0
	opts.RetryEveryTicks = 0
	opts.Durability = DurabilityOptions{Dir: t.TempDir(), SyncEvery: 64}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.AddTaxi(Point{Lat: 0.01, Lng: 0.01}, 3); err != nil {
			t.Fatal(err)
		}
	}
	min, max := s.Bounds()
	mid := Point{Lat: (min.Lat + max.Lat) / 2, Lng: (min.Lng + max.Lng) / 2}
	ctx := context.Background()
	for i := 0; i < 10000; i++ {
		if i%50 == 25 {
			s.SubmitRequest(ctx, min, mid, 1.3)
		} else {
			s.Advance(2 * time.Second)
		}
	}
	s.rt.WAL().Sync() // the abandoned process happened to have group-committed everything
	wantEvents := s.rt.Events()

	start := time.Now()
	recovered, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	defer recovered.Close()
	if recovered.rt.Events() != wantEvents {
		t.Fatalf("recovered %d events, want %d", recovered.rt.Events(), wantEvents)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("10k-event recovery took %v, budget 5s", elapsed)
	}
	t.Logf("recovered %d events in %v", wantEvents, elapsed)
}

// TestDurableSnapshotPrunesReplay proves snapshots actually shorten
// recovery: with a snapshot cadence, reopening replays only the tail.
func TestDurableSnapshotPrunesReplay(t *testing.T) {
	opts := durableBaseOptions()
	opts.Durability = DurabilityOptions{Dir: t.TempDir(), SyncEvery: 1, SnapshotEveryTicks: 2}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	drive(s, 0, 30)
	s.rt.WaitSnapshots() // background snapshot writes
	st, _ := s.DurabilityStats()
	if st.Snapshots == 0 {
		t.Fatal("no snapshot written despite cadence")
	}
	if st.LastSnapshotEvents == 0 {
		t.Fatal("snapshot watermark not recorded")
	}
	want := s.rt.Capture()

	recovered, err := New(opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	got := recovered.rt.Capture()
	if g, w := asJSON(t, got), asJSON(t, want); g != w {
		t.Fatalf("snapshot-based recovery differs:\n got %s\nwant %s", g, w)
	}
}

// TestWALDispatchOverhead bounds the WAL's cost on the live dispatch
// path: the same workload with a SyncEvery=64 WAL must stay within the
// benchgate budget (30% geomean) of the WAL-less run, with a small
// absolute allowance for fsync latency on slow filesystems.
func TestWALDispatchOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	run := func(withWAL bool) time.Duration {
		best := time.Duration(1<<62 - 1)
		for rep := 0; rep < 3; rep++ {
			opts := durableBaseOptions()
			if withWAL {
				opts.Durability = DurabilityOptions{Dir: t.TempDir(), SyncEvery: 64, SnapshotEveryTicks: 64}
			}
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			drive(s, 0, 200)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	base := run(false)
	walled := run(true)
	budget := base*13/10 + 250*time.Millisecond
	if walled > budget {
		t.Fatalf("WAL run %v exceeds budget %v (base %v)", walled, budget, base)
	}
	t.Logf("base %v, with WAL %v", base, walled)
}

var _ = wal.Options{} // keep the import for the DurabilityOptions alias

// TestDurableRecoveryIgnoresSnapshotAheadOfWAL plants a CRC-valid
// snapshot whose watermark exceeds the log's record count — the state a
// crashed process snapshotted after events its unsynced WAL tail lost —
// and requires recovery to skip it and genesis-replay instead of
// resurrecting phantom state.
func TestDurableRecoveryIgnoresSnapshotAheadOfWAL(t *testing.T) {
	dir := t.TempDir()
	opts := durableBaseOptions()
	opts.Durability = DurabilityOptions{Dir: dir, SyncEvery: 1}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	drive(s, 0, 12)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(500, []byte("phantom state")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	recovered, err := New(opts)
	if err != nil {
		t.Fatalf("recovery must skip the snapshot ahead of the WAL: %v", err)
	}
	defer recovered.Close()
	if recovered.rt.Events() != 12 {
		t.Fatalf("recovered at event %d, want 12", recovered.rt.Events())
	}
}

// TestDurableWALFailureStopsAcks proves a dead WAL surfaces on the
// facade's serve path: the call whose event failed to persist returns
// the durability error instead of a clean ack, and the system refuses
// everything after with ErrShutdown.
func TestDurableWALFailureStopsAcks(t *testing.T) {
	opts := durableBaseOptions()
	opts.Durability = DurabilityOptions{Dir: t.TempDir(), SyncEvery: 1}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	min, max := s.Bounds()
	mid := Point{Lat: (min.Lat + max.Lat) / 2, Lng: (min.Lng + max.Lng) / 2}
	if _, err := s.AddTaxi(mid, 3); err != nil {
		t.Fatalf("healthy AddTaxi: %v", err)
	}

	// Kill the log out from under the system: the next append fails and
	// the error sticks in the encoder.
	s.rt.WAL().Close()

	if _, err := s.AddTaxi(mid, 3); err == nil {
		t.Fatal("AddTaxi acknowledged an event the WAL never persisted")
	}
	if _, err := s.SubmitRequest(context.Background(), min, mid, 1.3); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-failure SubmitRequest error = %v, want ErrShutdown", err)
	}
}
