package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func appendLines(t *testing.T, l *Log, lines []string) {
	t.Helper()
	for _, s := range lines {
		if err := l.Append([]byte(s)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func readLines(t *testing.T, l *Log) []string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(l.NewReader()); err != nil {
		t.Fatalf("read log: %v", err)
	}
	s := strings.TrimSuffix(buf.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func nLines(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`{"i":%d,"payload":"record body %d"}`, i, i)
	}
	return out
}

func TestAppendReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	lines := nLines(25)
	l, err := Open(Options{Dir: dir, SyncEvery: 4}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	appendLines(t, l, lines)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Records(); got != int64(len(lines)) {
		t.Fatalf("Records = %d, want %d", got, len(lines))
	}
	got := readLines(t, l2)
	if len(got) != len(lines) {
		t.Fatalf("reader returned %d lines, want %d", len(got), len(lines))
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], lines[i])
		}
	}
	st := l2.Stats()
	if st.TruncatedBytes != 0 {
		t.Fatalf("clean reopen truncated %d bytes", st.TruncatedBytes)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	lines := nLines(10)
	l, err := Open(Options{Dir: dir, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendLines(t, l, lines)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial frame at the tail.
	seg := filepath.Join(dir, "wal-00000000000000000000.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad} // length says 255, only 0 payload bytes follow
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	if got := l2.Records(); got != int64(len(lines)) {
		t.Fatalf("Records after truncation = %d, want %d", got, len(lines))
	}
	st := l2.Stats()
	if st.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, len(torn))
	}
	// The log must accept appends after repair and read back whole.
	if err := l2.Append([]byte(`{"after":"crash"}`)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	got := readLines(t, l3)
	if len(got) != len(lines)+1 || got[len(got)-1] != `{"after":"crash"}` {
		t.Fatalf("post-repair log = %d lines (last %q)", len(got), got[len(got)-1])
	}
}

func TestCorruptPayloadTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendLines(t, l, nLines(5))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-00000000000000000000.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the last record's payload: CRC fails, record drops.
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Records(); got != 4 {
		t.Fatalf("Records = %d, want 4 (corrupt tail record dropped)", got)
	}
	if st := l2.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("expected truncated bytes after payload corruption")
	}
}

func TestCorruptEarlierSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SyncEvery: 1, SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendLines(t, l, nLines(10))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("test needs rotation, got %d segments", st.Segments)
	}
	seg := filepath.Join(dir, "wal-00000000000000000000.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}, nil); err == nil {
		t.Fatal("Open succeeded on corruption before the last segment")
	}
}

func TestMissingSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SyncEvery: 1, SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendLines(t, l, nLines(10))
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Segments < 3 {
		t.Fatalf("test needs >=3 segments, got %d", st.Segments)
	}
	// Delete a middle segment: the chain is broken and Open must refuse.
	entries, _ := os.ReadDir(dir)
	if err := os.Remove(filepath.Join(dir, entries[1].Name())); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}, nil); err == nil {
		t.Fatal("Open succeeded with a missing segment")
	}
}

func TestRotationPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	lines := nLines(40)
	l, err := Open(Options{Dir: dir, SyncEvery: -1, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendLines(t, l, lines)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	got := readLines(t, l2)
	if len(got) != len(lines) {
		t.Fatalf("got %d lines, want %d", len(got), len(lines))
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], lines[i])
		}
	}
}

func TestGroupCommitSyncCounts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SyncEvery: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendLines(t, l, nLines(20))
	st := l.Stats()
	if st.Syncs != 2 { // 20 appends / SyncEvery 8 = 2 group commits so far
		t.Fatalf("Syncs = %d, want 2", st.Syncs)
	}
	if err := l.Close(); err != nil { // Close commits the dirty tail
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 3 {
		t.Fatalf("Syncs after Close = %d, want 3", st.Syncs)
	}
}

func TestSyncIntervalCommitsDirtyTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SyncEvery: -1, SyncInterval: 5 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if l.Stats().Syncs > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("interval sync never fired")
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestOpenWithoutDirFails(t *testing.T) {
	if _, err := Open(Options{}, nil); err == nil {
		t.Fatal("Open with empty Dir succeeded")
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, ok, err := l.LatestSnapshotAtOrBefore(math.MaxInt64); err != nil || ok {
		t.Fatalf("LatestSnapshotAtOrBefore on empty dir = ok=%v err=%v", ok, err)
	}
	want := []byte(`{"state":"everything"}`)
	if err := l.WriteSnapshot(42, want); err != nil {
		t.Fatal(err)
	}
	ev, got, ok, err := l.LatestSnapshotAtOrBefore(math.MaxInt64)
	if err != nil || !ok {
		t.Fatalf("LatestSnapshotAtOrBefore: ok=%v err=%v", ok, err)
	}
	if ev != 42 || !bytes.Equal(got, want) {
		t.Fatalf("snapshot = (%d, %q), want (42, %q)", ev, got, want)
	}
	st := l.Stats()
	if st.Snapshots != 1 || st.LastSnapshotEvents != 42 {
		t.Fatalf("Stats snapshots = (%d, %d), want (1, 42)", st.Snapshots, st.LastSnapshotEvents)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteSnapshot(10, []byte("older")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(20, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapshotPath(dir, 20))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snapshotPath(dir, 20), data, 0o644); err != nil {
		t.Fatal(err)
	}
	ev, got, ok, err := l.LatestSnapshotAtOrBefore(math.MaxInt64)
	if err != nil || !ok {
		t.Fatalf("LatestSnapshotAtOrBefore: ok=%v err=%v", ok, err)
	}
	if ev != 10 || string(got) != "older" {
		t.Fatalf("fallback = (%d, %q), want (10, \"older\")", ev, got)
	}
}

func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := int64(1); i <= 5; i++ {
		if err := l.WriteSnapshot(i*10, []byte(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	files, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != snapshotsToKeep {
		t.Fatalf("kept %d snapshots, want %d", len(files), snapshotsToKeep)
	}
	if files[len(files)-1].events != 50 {
		t.Fatalf("newest kept snapshot at %d, want 50", files[len(files)-1].events)
	}
}

func TestReopenCountsSnapshots(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(7, []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.Snapshots != 1 || st.LastSnapshotEvents != 7 {
		t.Fatalf("reopen snapshot stats = (%d, %d), want (1, 7)", st.Snapshots, st.LastSnapshotEvents)
	}
}

func TestReaderStopsAtTornTailWithoutRepair(t *testing.T) {
	// NewReader on a log whose file has a torn tail (reader built before
	// any reopen repaired it) must yield exactly the valid prefix.
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := nLines(3)
	appendLines(t, l, lines)
	seg := filepath.Join(dir, "wal-00000000000000000000.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	got := readLines(t, l)
	if len(got) != len(lines) {
		t.Fatalf("reader returned %d lines, want %d", len(got), len(lines))
	}
	l.Close()
}

func TestScanSegmentEmptyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-00000000000000000000.seg")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	n, valid, torn, err := scanSegment(path)
	if err != nil || n != 0 || valid != 0 || torn != 0 {
		t.Fatalf("scanSegment(empty) = (%d, %d, %d, %v)", n, valid, torn, err)
	}
	l, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("Open over empty segment: %v", err)
	}
	defer l.Close()
	if l.Records() != 0 {
		t.Fatalf("Records = %d, want 0", l.Records())
	}
}

func TestInstrumentsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	l, err := Open(Options{Dir: t.TempDir(), SyncEvery: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	appendLines(t, l, nLines(3))
	if err := l.WriteSnapshot(3, []byte("s")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"mtshare_wal_appends_total":   3,
		"mtshare_wal_syncs_total":     4, // 3 per-append commits + Close
		"mtshare_wal_snapshots_total": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if _, ok := snap.Histograms["mtshare_wal_fsync_seconds"]; !ok {
		t.Error("fsync histogram not registered")
	}
	if g := snap.Gauges["mtshare_wal_segments"]; g != 1 {
		t.Errorf("segments gauge = %v, want 1", g)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [frameHeaderBytes]byte
	hdr[3] = 0xff // length ~4.2e9
	_, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])))
	if err == nil {
		t.Fatal("readFrame accepted an oversized length")
	}
}

func TestLatestSnapshotAtOrBeforeSkipsFutureWatermark(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteSnapshot(10, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(20, []byte("ahead")); err != nil {
		t.Fatal(err)
	}
	// The reopened log holds only 15 events: the snapshot at 20 became
	// durable ahead of the WAL tail a crash then tore off, so recovery
	// must fall back to the snapshot at 10.
	ev, got, ok, err := l.LatestSnapshotAtOrBefore(15)
	if err != nil || !ok {
		t.Fatalf("LatestSnapshotAtOrBefore(15): ok=%v err=%v", ok, err)
	}
	if ev != 10 || string(got) != "durable" {
		t.Fatalf("bounded lookup = (%d, %q), want (10, \"durable\")", ev, got)
	}
	// No snapshot at or below the bound: genesis replay.
	if _, _, ok, err := l.LatestSnapshotAtOrBefore(5); err != nil || ok {
		t.Fatalf("LatestSnapshotAtOrBefore(5) = ok=%v err=%v, want no snapshot", ok, err)
	}
	// The unbounded lookup still sees the newest one.
	if ev, _, ok, _ := l.LatestSnapshotAtOrBefore(math.MaxInt64); !ok || ev != 20 {
		t.Fatalf("LatestSnapshotAtOrBefore = (%d, ok=%v), want (20, true)", ev, ok)
	}
}

func TestSnapshotWriteFailureSurfacesInStats(t *testing.T) {
	reg := obs.NewRegistry()
	l, err := Open(Options{Dir: t.TempDir()}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A channel cannot marshal: the background-goroutine failure mode.
	if err := l.WriteSnapshotJSON(5, make(chan int)); err == nil {
		t.Fatal("WriteSnapshotJSON(chan) succeeded")
	}
	st := l.Stats()
	if st.SnapshotErr == "" {
		t.Fatal("failed snapshot left Stats.SnapshotErr empty")
	}
	if got := reg.Snapshot().Counters["mtshare_wal_snapshot_errors_total"]; got != 1 {
		t.Fatalf("snapshot error counter = %d, want 1", got)
	}
	// A later successful write clears the latched error.
	if err := l.WriteSnapshotJSON(6, map[string]int{"ok": 1}); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SnapshotErr != "" || st.Snapshots != 1 {
		t.Fatalf("after success: SnapshotErr=%q Snapshots=%d, want \"\" and 1", st.SnapshotErr, st.Snapshots)
	}
}
