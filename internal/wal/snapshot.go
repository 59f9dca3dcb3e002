// Snapshot files: point-in-time engine state that lets recovery skip
// replaying the log prefix. Each snapshot is one CRC-framed record in its
// own file snap-<events>.snap, where <events> is the number of WAL events
// the state reflects (its watermark); recovery restores the newest valid
// snapshot and replays only events at or past the watermark.
package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// snapshotsToKeep bounds disk use: older snapshots beyond this many are
// pruned after each successful write. Keeping more than one means a
// corrupt newest snapshot still leaves a valid fallback.
const snapshotsToKeep = 2

func snapshotPath(dir string, events int64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", events))
}

// WriteSnapshot atomically persists a snapshot taken after applying the
// first `events` WAL events. The payload is written CRC-framed to a temp
// file, fsync'd, renamed into place, and the directory fsync'd, so a
// crash mid-write leaves either the complete snapshot or none. The
// caller must ensure those `events` records are already durable (Sync
// the log first): a snapshot whose watermark is ahead of the durable
// tail would make recovery resurrect events the log lost. Failures are
// remembered in Stats.SnapshotErr and counted, so fire-and-forget
// callers cannot fail forever unnoticed; the error clears on the next
// successful write.
func (l *Log) WriteSnapshot(events int64, payload []byte) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if err := l.writeSnapshotLocked(events, payload); err != nil {
		l.noteSnapshotErrLocked(err)
		return err
	}
	l.snapErr = nil
	l.snapshots++
	if events > l.lastSnapEvents {
		l.lastSnapEvents = events
	}
	if l.snapsC != nil {
		l.snapsC.Inc()
	}
	l.pruneSnapshotsLocked()
	return nil
}

// WriteSnapshotJSON marshals state and persists it via WriteSnapshot, so
// a marshal failure is recorded the same way as a write failure instead
// of vanishing in a background goroutine.
func (l *Log) WriteSnapshotJSON(events int64, state interface{}) error {
	payload, err := json.Marshal(state)
	if err != nil {
		err = fmt.Errorf("wal: snapshot: marshal: %w", err)
		l.snapMu.Lock()
		l.noteSnapshotErrLocked(err)
		l.snapMu.Unlock()
		return err
	}
	return l.WriteSnapshot(events, payload)
}

func (l *Log) writeSnapshotLocked(events int64, payload []byte) error {
	final := snapshotPath(l.dir, events)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := writeFrameTo(w, payload); err == nil {
		err = w.Flush()
	} else {
		w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return syncDir(l.dir)
}

// noteSnapshotErrLocked records a failed snapshot attempt: the latest
// error surfaces in Stats.SnapshotErr and every failure increments the
// mtshare_wal_snapshot_errors_total counter.
func (l *Log) noteSnapshotErrLocked(err error) {
	l.snapErr = err
	if l.snapErrsC != nil {
		l.snapErrsC.Inc()
	}
}

func writeFrameTo(w *bufio.Writer, payload []byte) error {
	var hdr [frameHeaderBytes]byte
	putFrameHeader(hdr[:], payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// LatestSnapshotAtOrBefore returns the newest snapshot whose CRC verifies
// and whose watermark does not exceed maxEvents, skipping corrupt or torn
// ones; ok is false when none qualifies (the host then replays the log
// from genesis). maxEvents is the number of events the reopened log
// actually holds: a snapshot ahead of that bound reflects events the log
// lost (it became durable before the WAL tail it promises), so recovery
// must skip it and fall back to an older snapshot or a genesis replay
// rather than resurrect phantom state.
func (l *Log) LatestSnapshotAtOrBefore(maxEvents int64) (events int64, payload []byte, ok bool, err error) {
	files, err := listSnapshots(l.dir)
	if err != nil {
		return 0, nil, false, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		if files[i].events > maxEvents {
			continue // durable ahead of the recovered log: unusable
		}
		payload, rerr := readSnapshotFile(files[i].path)
		if rerr != nil {
			continue // torn or corrupt: fall back to the previous one
		}
		return files[i].events, payload, true, nil
	}
	return 0, nil, false, nil
}

type snapshotFile struct {
	path   string
	events int64
}

// listSnapshots returns the directory's snapshot files sorted ascending
// by watermark.
func listSnapshots(dir string) ([]snapshotFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []snapshotFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		ev, perr := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
		if perr != nil {
			continue
		}
		out = append(out, snapshotFile{path: filepath.Join(dir, name), events: ev})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].events < out[j].events })
	return out, nil
}

func readSnapshotFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	payload, err := readFrame(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// scanSnapshots counts existing snapshot files at Open time.
func (l *Log) scanSnapshots() (count, lastEvents int64, err error) {
	files, err := listSnapshots(l.dir)
	if err != nil {
		return 0, 0, err
	}
	if len(files) > 0 {
		lastEvents = files[len(files)-1].events
	}
	return int64(len(files)), lastEvents, nil
}

// pruneSnapshotsLocked deletes all but the newest snapshotsToKeep files.
// Best-effort: a failed remove is retried implicitly on the next write.
func (l *Log) pruneSnapshotsLocked() {
	files, err := listSnapshots(l.dir)
	if err != nil {
		return
	}
	for i := 0; i+snapshotsToKeep < len(files); i++ {
		os.Remove(files[i].path)
	}
}
