// Package wal is the durability layer of the dispatch service: an
// append-only write-ahead log of replay-v3 event lines plus point-in-time
// snapshots, from which a crashed engine recovers byte-identical state.
//
// The log is a sequence of segment files named wal-<first>.seg, where
// <first> is the zero-padded index of the segment's first record. Each
// record is framed as
//
//	[length uint32 LE][crc32c uint32 LE of payload][payload]
//
// and carries exactly one line of the replay JSONL encoding (record 0 is
// the header line, record i+1 is event i), so concatenating the payloads
// with newlines reproduces a stream the replay decoder reads directly.
// Appends are group-committed: the file is fsync'd every SyncEvery
// records, every SyncInterval of dirty time, on rotation, and on Close.
// A crash can therefore tear at most the unsynced tail of the last
// segment; Open scans every segment, verifies each record's CRC, and
// truncates the last segment at the first torn or corrupt frame. A CRC
// failure anywhere else is real corruption and fails Open loudly.
//
// Snapshots are separate single-record files snap-<events>.snap written
// atomically (temp file, fsync, rename, directory fsync) by
// WriteSnapshot; LatestSnapshotAtOrBefore returns the newest one whose CRC
// checks out, falling back to older snapshots — or to a full genesis
// replay when none survive — so a torn snapshot can never poison
// recovery. Hosts Sync the log before writing a snapshot and bound that
// search by the events the log holds, so a snapshot whose watermark is
// ahead of the durable record count (its events died with the unsynced
// tail) is never written in the first place and is skipped if one exists
// anyway.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Defaults for zero-valued Options fields.
const (
	DefaultSyncEvery    = 64
	DefaultSegmentBytes = 4 << 20
)

// frameHeaderBytes is the per-record framing overhead: length + CRC32C.
const frameHeaderBytes = 8

// maxRecordBytes bounds a single record. Event lines are a few hundred
// bytes and snapshots of city-scale fleets are megabytes; anything larger
// read back from disk is a corrupt length field, not data.
const maxRecordBytes = 64 << 20

// castagnoli is the CRC32C polynomial table (the iSCSI/storage standard,
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures the durability layer. The zero value (empty Dir)
// disables it entirely; hosts thread it verbatim from their own config.
type Options struct {
	// Dir is the directory holding segment and snapshot files. Empty
	// disables durability.
	Dir string

	// SyncEvery fsyncs the active segment after every N appended records
	// (group commit). 0 means DefaultSyncEvery; negative disables
	// count-based syncing (rely on SyncInterval and Close).
	SyncEvery int

	// SyncInterval, when positive, fsyncs at most this long after an
	// unsynced append, bounding data loss under low write rates.
	SyncInterval time.Duration

	// SnapshotEveryTicks makes the host write a snapshot every N
	// simulation ticks. 0 disables snapshots (recovery replays the whole
	// log from genesis).
	SnapshotEveryTicks int

	// SegmentBytes rotates to a new segment file when the active one
	// would exceed this size. 0 means DefaultSegmentBytes.
	SegmentBytes int64
}

// Enabled reports whether durability is configured.
func (o Options) Enabled() bool { return o.Dir != "" }

func (o Options) effSyncEvery() int {
	if o.SyncEvery == 0 {
		return DefaultSyncEvery
	}
	return o.SyncEvery
}

func (o Options) effSegmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

// Stats is a point-in-time summary of the log, exposed by
// GET /v1/durability.
type Stats struct {
	Dir                string `json:"dir"`
	Segments           int    `json:"segments"`
	Records            int64  `json:"records"`
	AppendedBytes      int64  `json:"appended_bytes"`
	TruncatedBytes     int64  `json:"truncated_bytes"`
	Syncs              int64  `json:"syncs"`
	Rotations          int64  `json:"rotations"`
	LastSyncUnixNanos  int64  `json:"last_sync_unix_nanos"`
	Snapshots          int64  `json:"snapshots"`
	LastSnapshotEvents int64  `json:"last_snapshot_events"`
	SyncEvery          int    `json:"sync_every"`
	SnapshotEveryTicks int    `json:"snapshot_every_ticks"`
	Err                string `json:"err,omitempty"`
	SnapshotErr        string `json:"snapshot_err,omitempty"`
}

type segment struct {
	path  string
	start int64 // index of the segment's first record
}

// Log is an open write-ahead log positioned for appending. Methods are
// safe for concurrent use; I/O errors are sticky — once a write or sync
// fails, every later call returns the same error so a host cannot keep
// acknowledging work it is no longer persisting. Counts of this process's
// syncs, rotations and truncations live only in its instruments.
type Log struct {
	opts Options
	dir  string

	mu            sync.Mutex
	f             *os.File
	w             *bufio.Writer
	segments      []segment
	segBytes      int64 // bytes in the active segment
	records       int64 // valid records across all segments
	appended      int64 // framed bytes appended (all segments)
	dirty         int   // appends since the last fsync
	lastSyncNanos int64
	closed        bool
	err           error

	stopInterval chan struct{}
	intervalDone chan struct{}

	snapMu         sync.Mutex
	snapshots      int64
	lastSnapEvents int64
	snapErr        error // latest failed snapshot attempt; nil after a success

	appendsC, bytesC, syncsC, rotationsC, truncC, snapsC, snapErrsC *obs.Counter
	segGauge, lastSyncGauge                                         *obs.Gauge
	fsyncH                                                          *obs.Histogram
}

// Open opens (creating if needed) the log in opts.Dir, scans and repairs
// the segment chain, and positions it for appending. reg receives the
// mtshare_wal_* instruments; nil keeps them in a private registry.
func Open(opts Options, reg *obs.Registry) (*Log, error) {
	if !opts.Enabled() {
		return nil, fmt.Errorf("wal: no directory configured")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := &Log{
		opts:          opts,
		dir:           opts.Dir,
		appendsC:      reg.Counter("mtshare_wal_appends_total"),
		bytesC:        reg.Counter("mtshare_wal_appended_bytes_total"),
		syncsC:        reg.Counter("mtshare_wal_syncs_total"),
		rotationsC:    reg.Counter("mtshare_wal_rotations_total"),
		truncC:        reg.Counter("mtshare_wal_truncated_bytes_total"),
		snapsC:        reg.Counter("mtshare_wal_snapshots_total"),
		snapErrsC:     reg.Counter("mtshare_wal_snapshot_errors_total"),
		segGauge:      reg.Gauge("mtshare_wal_segments"),
		lastSyncGauge: reg.Gauge("mtshare_wal_last_sync_unix_seconds"),
		fsyncH:        reg.Histogram("mtshare_wal_fsync_seconds"),
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if len(l.segments) == 0 {
		if err := l.createSegment(0); err != nil {
			return nil, err
		}
	} else {
		last := l.segments[len(l.segments)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.w = bufio.NewWriter(f)
	}
	l.segGauge.Set(float64(len(l.segments)))
	if n, ev, err := l.scanSnapshots(); err == nil {
		l.snapshots, l.lastSnapEvents = n, ev
	}
	if opts.SyncInterval > 0 {
		l.stopInterval = make(chan struct{})
		l.intervalDone = make(chan struct{})
		go l.intervalLoop(opts.SyncInterval)
	}
	return l, nil
}

// scan discovers the segment chain, verifies it, and truncates a torn
// tail on the last segment.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		start, perr := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
		if perr != nil {
			return fmt.Errorf("wal: bad segment name %q", name)
		}
		segs = append(segs, segment{path: filepath.Join(l.dir, name), start: start})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	for i, seg := range segs {
		if seg.start != l.records {
			return fmt.Errorf("wal: segment %s starts at record %d, want %d (missing or reordered segment)",
				seg.path, seg.start, l.records)
		}
		n, valid, torn, serr := scanSegment(seg.path)
		if serr != nil {
			return serr
		}
		last := i == len(segs)-1
		if torn > 0 && !last {
			return fmt.Errorf("wal: segment %s has %d corrupt bytes before the last segment", seg.path, torn)
		}
		if torn > 0 {
			if terr := truncateFile(seg.path, valid); terr != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", terr)
			}
			l.truncC.Add(torn)
		}
		l.records += n
		l.appended += valid
		if last {
			l.segBytes = valid
		}
	}
	l.segments = segs
	return nil
}

// scanSegment walks one segment file counting whole, CRC-valid records.
// It returns the record count, the byte length of the valid prefix, and
// the number of trailing bytes that do not form a valid record.
func scanSegment(path string) (records, validBytes, tornBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	size := info.Size()
	r := bufio.NewReader(f)
	var hdr [frameHeaderBytes]byte
	buf := make([]byte, 0, 4096)
	for {
		if _, rerr := io.ReadFull(r, hdr[:]); rerr != nil {
			break // clean EOF or torn header — validBytes marks the cut
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(n) > maxRecordBytes || validBytes+frameHeaderBytes+int64(n) > size {
			break
		}
		if int64(n) > int64(cap(buf)) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, rerr := io.ReadFull(r, buf); rerr != nil {
			break
		}
		if crc32.Checksum(buf, castagnoli) != crc {
			break
		}
		records++
		validBytes += frameHeaderBytes + int64(n)
	}
	return records, validBytes, size - validBytes, nil
}

func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// createSegment starts a fresh segment whose first record will be index
// start, and fsyncs the directory so the file survives a crash.
func (l *Log) createSegment(start int64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%020d.seg", start))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segments = append(l.segments, segment{path: path, start: start})
	l.segBytes = 0
	l.segGauge.Set(float64(len(l.segments)))
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Append frames and writes one record (a single replay JSONL line,
// without the trailing newline). The write is buffered; it reaches disk
// at the next group commit.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: append on closed log")
	}
	frame := int64(frameHeaderBytes + len(payload))
	if l.segBytes > 0 && l.segBytes+frame > l.opts.effSegmentBytes() {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	var hdr [frameHeaderBytes]byte
	putFrameHeader(hdr[:], payload)
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	if _, err := l.w.Write(payload); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	l.records++
	l.segBytes += frame
	l.appended += frame
	l.dirty++
	l.appendsC.Inc()
	l.bytesC.Add(frame)
	if se := l.opts.effSyncEvery(); se > 0 && l.dirty >= se {
		return l.syncLocked()
	}
	return nil
}

// rotateLocked seals the active segment (flush + fsync + close) and
// starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	if err := l.createSegment(l.records); err != nil {
		l.err = err
		return err
	}
	l.rotationsC.Inc()
	return nil
}

// Sync forces a group commit: flush the buffer and fsync the active
// segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	l.fsyncH.Observe(time.Since(t0).Seconds())
	l.dirty = 0
	l.lastSyncNanos = time.Now().UnixNano()
	l.syncsC.Inc()
	l.lastSyncGauge.Set(float64(l.lastSyncNanos) / 1e9)
	return nil
}

func (l *Log) intervalLoop(every time.Duration) {
	defer close(l.intervalDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.stopInterval:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.err == nil && l.dirty > 0 {
				l.syncLocked() // sticky error is surfaced by the next Append/Sync
			}
			l.mu.Unlock()
		}
	}
}

// Records returns the number of valid records (header + events).
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Err returns the sticky I/O error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close commits any buffered records and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true
	serr := l.err
	if serr == nil {
		serr = l.syncLocked()
	}
	if cerr := l.f.Close(); serr == nil && cerr != nil {
		serr = fmt.Errorf("wal: %w", cerr)
		l.err = serr
	}
	stop := l.stopInterval
	done := l.intervalDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return serr
}

// Stats returns a summary of the log and its snapshots.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	st := Stats{
		Dir:                l.dir,
		Segments:           len(l.segments),
		Records:            l.records,
		AppendedBytes:      l.appended,
		TruncatedBytes:     l.truncC.Value(),
		Syncs:              l.syncsC.Value(),
		Rotations:          l.rotationsC.Value(),
		LastSyncUnixNanos:  l.lastSyncNanos,
		SyncEvery:          l.opts.effSyncEvery(),
		SnapshotEveryTicks: l.opts.SnapshotEveryTicks,
	}
	if l.err != nil {
		st.Err = l.err.Error()
	}
	l.mu.Unlock()
	l.snapMu.Lock()
	st.Snapshots = l.snapshots
	st.LastSnapshotEvents = l.lastSnapEvents
	if l.snapErr != nil {
		st.SnapshotErr = l.snapErr.Error()
	}
	l.snapMu.Unlock()
	return st
}

// NewReader returns a reader over the log's record payloads joined by
// newlines — exactly the JSONL stream the replay decoder consumes. It
// reads the segment files as they were committed to the OS; call Sync
// first (or use it before appending, as recovery does) to see every
// record.
func (l *Log) NewReader() io.Reader {
	l.mu.Lock()
	segs := make([]segment, len(l.segments))
	copy(segs, l.segments)
	l.mu.Unlock()
	return &logReader{segs: segs}
}

// AppendWriter adapts the log to io.Writer for line-oriented encoders
// (replay's encoder issues exactly one Write per JSONL line): the
// trailing newline is stripped and each line becomes one appended
// record.
func (l *Log) AppendWriter() io.Writer { return appendWriter{l} }

type appendWriter struct{ l *Log }

func (a appendWriter) Write(p []byte) (int, error) {
	payload := p
	if n := len(payload); n > 0 && payload[n-1] == '\n' {
		payload = payload[:n-1]
	}
	if err := a.l.Append(payload); err != nil {
		return 0, err
	}
	return len(p), nil
}

// logReader streams payloads with '\n' separators, validating CRCs as it
// goes. A torn or corrupt frame in the final segment reads as EOF (it is
// exactly what Open would truncate); anywhere else it is an error.
type logReader struct {
	segs []segment
	cur  int
	r    *bufio.Reader
	f    *os.File
	buf  []byte // pending bytes of the current line (payload + '\n')
	err  error
}

func (lr *logReader) Read(p []byte) (int, error) {
	for {
		if lr.err != nil {
			return 0, lr.err
		}
		if len(lr.buf) > 0 {
			n := copy(p, lr.buf)
			lr.buf = lr.buf[n:]
			return n, nil
		}
		if lr.r == nil {
			if lr.cur >= len(lr.segs) {
				lr.err = io.EOF
				return 0, io.EOF
			}
			f, err := os.Open(lr.segs[lr.cur].path)
			if err != nil {
				lr.err = fmt.Errorf("wal: %w", err)
				return 0, lr.err
			}
			lr.f = f
			lr.r = bufio.NewReader(f)
		}
		payload, err := readFrame(lr.r)
		if err == io.EOF {
			lr.f.Close()
			lr.f, lr.r = nil, nil
			lr.cur++
			continue
		}
		if err != nil {
			if lr.cur == len(lr.segs)-1 {
				// Torn tail of the final segment: end of log.
				lr.f.Close()
				lr.err = io.EOF
				return 0, io.EOF
			}
			lr.f.Close()
			lr.err = err
			return 0, err
		}
		lr.buf = append(payload, '\n')
	}
}

// putFrameHeader fills an 8-byte frame header for payload.
func putFrameHeader(hdr []byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
}

// readFrame reads one record. io.EOF means a clean segment end; any other
// error means a torn or corrupt frame.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wal: torn frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(n) > maxRecordBytes {
		return nil, fmt.Errorf("wal: frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wal: torn frame payload: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("wal: frame CRC mismatch")
	}
	return payload, nil
}
