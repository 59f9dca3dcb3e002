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
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/replay"
	"repro/internal/roadnet"
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
// several points, each past a newer snapshot, and requires both
// recoveries of the directory — latest snapshot plus tail, and genesis
// replay of the segments alone — to rebuild exactly the state the live
// runtime holds. At least one restored snapshot must hold an open shared
// episode that settles in the replayed tail, and at least one settled
// fare must be below its tariff, so the comparison covers the shared
// fares a restore has to finish.
func TestDurableSnapshotRecoveryMatchesGenesis(t *testing.T) {
	dir := t.TempDir()
	live := mustOpen(t, dir, 2)
	seen := map[int64]bool{}
	prev, settledAcross := 0, false
	for _, upTo := range []int{15, 28, 41, 192} {
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
			if snapshots && openEpisodeSettles(t, r, w) {
				settledAcross = true
			}
			if err := r.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !settledAcross {
		t.Fatal("no restored snapshot held an open shared episode that settled after the restore")
	}
	below := false
	for _, st := range live.Requests() {
		below = below || live.Settled(st) && st.Fare < live.Pay.Tariff.Fare(st.Req.DirectMeters)
	}
	if !below {
		t.Fatal("no settled fare is below its tariff: every ride rode alone")
	}
}

// openEpisodeSettles reports whether the snapshot at watermark w of r's
// WAL holds an open episode that r, recovered from it, has since settled.
func openEpisodeSettles(t *testing.T, r *Runtime, w int64) bool {
	t.Helper()
	_, payload, ok, err := r.WAL().LatestSnapshotAtOrBefore(w)
	if err != nil || !ok {
		t.Fatalf("no snapshot at %d: %v", w, err)
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatal(err)
	}
	for _, ts := range snap.Taxis {
		if len(ts.Episode) == 0 {
			continue
		}
		settled := true
		for _, id := range ts.Episode {
			st, _ := r.Request(id)
			settled = settled && r.Settled(st)
		}
		if settled {
			return true
		}
	}
	return false
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

// TestDurableSnapshotBoundCountsEvents closes a log of 14 events cleanly
// — so it ends in a seal record, which takes no event index — and plants
// a same-world snapshot at watermark 15. Recovery must bound its snapshot
// search by the 14 logged events, not the 15 records, and resume at 14.
func TestDurableSnapshotBoundCountsEvents(t *testing.T) {
	dir := t.TempDir()
	live := mustOpen(t, dir, 0)
	drive(live, 0, 14)
	want := state(t, live)
	if err := live.Seal(); err != nil {
		t.Fatal(err)
	}
	ahead := mustOpen(t, t.TempDir(), 0)
	drive(ahead, 0, 15)
	snap := ahead.Capture()
	if err := ahead.Seal(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshotJSON(snap.Events, snap); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r := mustOpen(t, dir, 0)
	if r.Events() != 14 {
		t.Fatalf("recovered at event %d, want 14: a snapshot past the log was restored", r.Events())
	}
	if got := state(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

// TestDurableTamperedSealFailsRecovery closes and reopens a log, so a
// seal sits mid-log, then alters one of that seal's counters: recovery
// must refuse the log, naming the seal's event index and the counter.
func TestDurableTamperedSealFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	live := mustOpen(t, dir, 0)
	drive(live, 0, 14)
	if err := live.Seal(); err != nil {
		t.Fatal(err)
	}
	live = mustOpen(t, dir, 0)
	drive(live, 14, 28)
	if err := live.Seal(); err != nil {
		t.Fatal(err)
	}
	h, events := readWAL(t, dir)
	if _, err := open(t, rewriteWAL(t, h, events), 0); err != nil {
		t.Fatalf("an untampered copy must recover: %v", err)
	}
	k := 0
	for events[k].Metrics == nil {
		k++
	}
	if k == len(events)-1 {
		t.Fatal("no seal mid-log")
	}
	const name = "mtshare_match_dispatches_total"
	if _, ok := events[k].Metrics.Counters[name]; !ok {
		t.Fatalf("seal carries no %s: %v", name, events[k].Metrics.Counters)
	}
	events[k].Metrics.Counters[name]++
	_, err := open(t, rewriteWAL(t, h, events), 0)
	want := fmt.Sprintf("recovered state diverges from the log: event #%d metrics.%s", events[k].I, name)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery of a log with a tampered seal: err = %v, want it to name %q", err, want)
	}
}

// TestDurableSkipsForeignSnapshot plants the newest snapshot with another
// world's header, or with the schema version before the current one, and
// different state; recovery must skip it and replay the log from genesis,
// the log being the truth.
func TestDurableSkipsForeignSnapshot(t *testing.T) {
	for _, c := range []struct {
		name  string
		plant func(*Snapshot)
	}{
		{"header", func(s *Snapshot) { s.Header = json.RawMessage(`{"version":3,"kind":"system","seed":99}`) }},
		{"version", func(s *Snapshot) { s.Version = snapshotVersion - 1 }},
	} {
		dir := t.TempDir()
		live := mustOpen(t, dir, 0)
		drive(live, 0, 24)
		want := state(t, live)
		foreign := live.Capture()
		if err := live.Seal(); err != nil {
			t.Fatal(err)
		}
		c.plant(foreign)
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
			t.Fatalf("%s: recovery must skip the planted snapshot: %v", c.name, err)
		}
		if got := state(t, r); got != want {
			t.Fatalf("%s: recovered state differs:\n got %s\nwant %s", c.name, got, want)
		}
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

// TestDurableRefusesNonDenseTables plants a CRC-valid snapshot whose
// request or taxi table is out of ID order or has a gap: the runtime
// indexes both tables by ID, so recovery must refuse the snapshot rather
// than hand out another taxi's or request's state under an ID.
func TestDurableRefusesNonDenseTables(t *testing.T) {
	for _, c := range []struct {
		name  string
		plant func(*Snapshot)
		want  string
	}{
		{"taxis swapped", func(s *Snapshot) { s.Taxis[0], s.Taxis[1] = s.Taxis[1], s.Taxis[0] }, "taxi table slot 1 holds taxi 2"},
		{"taxi gap", func(s *Snapshot) { s.Taxis = append(s.Taxis[:2], s.Taxis[3:]...) }, "taxi table slot 3 holds taxi 4"},
		{"requests swapped", func(s *Snapshot) { s.Requests[0], s.Requests[1] = s.Requests[1], s.Requests[0] }, "request table slot 1"},
		{"request missing", func(s *Snapshot) { s.Requests[2].Req = nil }, "request table slot 3"},
	} {
		dir := t.TempDir()
		live := mustOpen(t, dir, 0)
		drive(live, 0, 24)
		snap := live.Capture()
		if err := live.Seal(); err != nil {
			t.Fatal(err)
		}
		c.plant(snap)
		l, err := wal.Open(wal.Options{Dir: dir}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WriteSnapshotJSON(snap.Events, snap); err != nil {
			t.Fatal(err)
		}
		l.Close()

		if _, err := open(t, dir, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: recovery over the planted snapshot: err = %v, want it to name %q", c.name, err, c.want)
		}
	}
}

// fill sets every exported field of the struct v, nested structs
// included, to a distinct non-zero value numbered from *k. A field of a
// kind it cannot fill fails the test, so a new field is never skipped.
func fill(t *testing.T, v reflect.Value, k *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		*k++
		switch {
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanInt():
			f.SetInt(int64(*k))
		case f.CanFloat():
			f.SetFloat(float64(*k) + 0.125)
		case f.Kind() == reflect.Struct:
			fill(t, f, k)
		default:
			t.Fatalf("fill: %s.%s has kind %s", v.Type(), sf.Name, f.Kind())
		}
	}
}

// TestSnapshotCarriesEveryField sets every exported field of a request's
// Lifecycle and fleet.Request, and of a taxi's fleet.TaxiState, to a
// non-zero value, then requires Capture → JSON → restore into a fresh
// runtime → Capture to reproduce the bytes: a field the schema drops, or
// restore forgets, fails here.
func TestSnapshotCarriesEveryField(t *testing.T) {
	live, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(live, 0, 40)
	snap := live.Capture()
	if len(snap.Requests) < 2 || len(snap.Taxis) < 1 {
		t.Fatalf("driven world has %d requests and %d taxis", len(snap.Requests), len(snap.Taxis))
	}
	k := 0
	st := &snap.Requests[0]
	fill(t, reflect.ValueOf(&st.Lifecycle).Elem(), &k)
	fill(t, reflect.ValueOf(st.Req).Elem(), &k)
	st.Req.ID = 1 // the table is indexed by ID

	// A taxi's fields constrain each other (the path's edges must exist,
	// the schedule must resolve), so its state is built by hand and every
	// field is then required to be non-zero.
	g := live.Graph
	u := roadnet.VertexID(g.NumVertices() / 2)
	v := g.Out(u)[0].To
	w := g.Out(v)[0].To
	for _, a := range g.Out(v) {
		if a.To != u {
			w = a.To
		}
	}
	snap.Taxis[0].TaxiState = fleet.TaxiState{
		ID:       1,
		Capacity: 4,
		Path:     []int64{int64(u), int64(v), int64(w)},
		Offset:   g.Out(u)[0].Cost / 3,
		Schedule: []fleet.ScheduleEntry{{Req: 1, Pickup: true}, {Req: 2}},
		EventPos: []int{1, 2},
		IdleAt:   int64(w),
		Seats:    2,
		Odometer: 1234.5,
		Waiting:  []int64{1},
		Onboard:  []int64{2},
	}
	ts := reflect.ValueOf(snap.Taxis[0].TaxiState)
	for i := 0; i < ts.NumField(); i++ {
		if ts.Field(i).IsZero() {
			t.Fatalf("TaxiState.%s is zero: set it above", ts.Type().Field(i).Name)
		}
	}

	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.restore(&back); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// A field the JSON skips would round-trip as equal bytes, so the
	// restored values are compared too.
	if got := fresh.requests[0]; !reflect.DeepEqual(got.Lifecycle, st.Lifecycle) || !reflect.DeepEqual(*got.Req, *st.Req) {
		t.Fatalf("request 1 restored as %+v %+v, want %+v %+v", *got.Req, got.Lifecycle, *st.Req, st.Lifecycle)
	}
	if got := fresh.taxis[0].DurableState(); !reflect.DeepEqual(got, snap.Taxis[0].TaxiState) {
		t.Fatalf("taxi 1 restored as %+v, want %+v", got, snap.Taxis[0].TaxiState)
	}
	fresh.events = back.Events
	got, err := json.Marshal(fresh.Capture())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip differs:\n got %s\nwant %s", got, want)
	}
}

// BenchmarkCapture measures a snapshot of the test world driven through
// 200 operations: "capture" is Capture alone, the part a snapshotting
// tick runs synchronously; "marshal" adds the JSON encoding the
// background writer runs. Both report the encoded size as snap-bytes.
func BenchmarkCapture(b *testing.B) {
	r, err := New(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	drive(r, 0, 200)
	buf, err := json.Marshal(r.Capture())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		marshal bool
	}{{"capture", false}, {"marshal", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap := r.Capture()
				if c.marshal {
					if _, err := json.Marshal(snap); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(buf)), "snap-bytes")
		})
	}
}

// TestCountsHaveOneOwner requires the queue's, the router's and the WAL's
// counts to read the same through their Stats methods as through the
// mtshare_* counters of the runtime's registry, on a live runtime and on
// one recovered from a snapshot and a torn log tail.
func TestCountsHaveOneOwner(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Dir: dir, SyncEvery: 1, SnapshotEveryTicks: 2, SegmentBytes: 8 << 10}
	openAt := func(dir string) *Runtime {
		t.Helper()
		r, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		opts.Dir = dir
		if err := r.OpenWAL(opts, testWorld()); err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		return r
	}
	check := func(label string, r *Runtime) match.QueueStats {
		t.Helper()
		c := r.Engine.Metrics().Snapshot().Counters
		qs, rs, ws := r.Queue.Stats(), r.Engine.Router().Stats(), r.WAL().Stats()
		for _, p := range []struct {
			name string
			got  int64
		}{
			{"mtshare_match_queue_enqueued_total", qs.Enqueued},
			{"mtshare_match_queue_rejected_total", qs.Rejected},
			{"mtshare_match_queue_retries_total", qs.Retries},
			{"mtshare_match_queue_served_total", qs.Served},
			{"mtshare_match_queue_expired_total", qs.Expired},
			{"mtshare_roadnet_cache_hits_total", rs.Hits},
			{"mtshare_roadnet_ch_queries_total", rs.CHQueries},
			{"mtshare_wal_syncs_total", ws.Syncs},
			{"mtshare_wal_rotations_total", ws.Rotations},
			{"mtshare_wal_truncated_bytes_total", ws.TruncatedBytes},
		} {
			if want, ok := c[p.name]; !ok || p.got != want {
				t.Errorf("%s: Stats reads %d, %s is %d (registered %v)", label, p.got, p.name, want, ok)
			}
		}
		if d := r.Engine.Metrics().Snapshot().Gauges["mtshare_match_queue_depth"]; int(d) != qs.Depth {
			t.Errorf("%s: queue depth %d, gauge %v", label, qs.Depth, d)
		}
		if qs.Enqueued == 0 || qs.Retries == 0 || rs.Hits == 0 || rs.CHQueries == 0 {
			t.Fatalf("%s: the drive exercised too little: %+v %+v", label, qs, rs)
		}
		return qs
	}

	live := openAt(dir)
	drive(live, 0, 120)
	live.WaitSnapshots()
	if ws := live.WAL().Stats(); ws.Syncs == 0 || ws.Rotations == 0 || ws.LastSnapshotEvents == 0 {
		t.Fatalf("live WAL never synced, rotated or snapshotted: %+v", ws)
	}
	liveQueue := check("live", live)

	// Recover a copy whose last segment ends in a torn frame.
	cp := copyWAL(t, dir, true)
	segs, err := filepath.Glob(filepath.Join(cp, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", cp, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rec := openAt(cp)
	if ws := rec.WAL().Stats(); ws.TruncatedBytes != 6 {
		t.Fatalf("recovery truncated %d bytes, want the 6 torn ones", ws.TruncatedBytes)
	}
	if got := check("recovered", rec); got != liveQueue {
		t.Fatalf("recovered queue counts %+v, live %+v", got, liveQueue)
	}
	drive(rec, 120, 160)
	drive(live, 120, 160)
	if got, want := check("recovered, driven on", rec), check("live, driven on", live); got != want {
		t.Fatalf("queue counts diverged after recovery: %+v, live %+v", got, want)
	}
	if ws := rec.WAL().Stats(); ws.Syncs == 0 {
		t.Fatalf("the recovered WAL never synced: %+v", ws)
	}
	for _, r := range []*Runtime{live, rec} {
		if err := r.Seal(); err != nil {
			t.Fatal(err)
		}
	}
}
