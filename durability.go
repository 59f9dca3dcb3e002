// Durable engine state: the facade's write-ahead-log integration.
//
// With Options.Durability enabled, every facade event (AddTaxi,
// SubmitRequest, ReportStreetHail, Advance, and the closing counters
// seal) is appended to a crash-safe WAL in the replay-v3 encoding —
// record 0 is the replay header, record i+1 is event i — and a
// deterministic snapshot of the whole system is written every N Advance
// ticks. Reopening a System over a non-empty WAL directory recovers it:
// the header must match byte for byte, the latest valid snapshot is
// restored, and the WAL tail is re-executed through the same public
// methods that produced it, with every re-executed outcome diffed
// against the recorded one. Because the engine is deterministic, the
// recovered state is byte-identical to the state the crashed process
// held at its last committed record.
package mtshare

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/match"
	"repro/internal/replay"
	"repro/internal/wal"
)

// sysSnapshot is the serialized form of a whole System at an event
// boundary. Header pins the snapshot to the world it was taken in;
// Events is the WAL watermark (events executed when the snapshot was
// captured — the same number the snapshot file is named after).
type sysSnapshot struct {
	Header   json.RawMessage      `json:"header"`
	Events   int64                `json:"events"`
	Now      float64              `json:"now"`
	Ticks    int64                `json:"ticks"`
	NextTaxi int64                `json:"next_taxi"`
	NextReq  int64                `json:"next_req"`
	Requests []fleet.RequestState `json:"requests,omitempty"`
	Engine   *match.DurableState  `json:"engine"`
	Queue    *match.PoolState     `json:"queue,omitempty"`
	Counters map[string]int64     `json:"counters,omitempty"`
}

// openDurability attaches the WAL to a freshly built (still virgin)
// System: a fresh directory starts a new log with the header as record
// 0; a non-empty one triggers recovery.
func (s *System) openDurability(opts Options) error {
	hdr := buildHeader(opts, s.g)
	hdrLine, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("mtshare: durability: marshal header: %w", err)
	}
	wlog, err := wal.Open(opts.Durability, s.engine.Metrics())
	if err != nil {
		return err
	}
	if wlog.Records() == 0 {
		enc, err := replay.NewEncoder(wlog.AppendWriter(), hdr)
		if err != nil {
			wlog.Close()
			return err
		}
		s.walEnc = enc
	} else {
		if err := s.recoverFromWAL(wlog, hdrLine); err != nil {
			wlog.Close()
			return fmt.Errorf("mtshare: durability: recover: %w", err)
		}
		s.walEnc = replay.ResumeEncoder(wlog.AppendWriter())
	}
	s.wlog = wlog
	s.walHeader = hdrLine
	s.snapEvery = opts.Durability.SnapshotEveryTicks
	return nil
}

// recoverFromWAL rebuilds the system's state from the log: header check,
// snapshot restore, tail re-execution with outcome verification.
func (s *System) recoverFromWAL(wlog *wal.Log, hdrLine []byte) error {
	// Record 0 must be byte-identical to the header this world was built
	// from — otherwise the WAL belongs to a different configuration and
	// replaying it here would silently produce a different system.
	first, err := bufio.NewReader(wlog.NewReader()).ReadBytes('\n')
	if err != nil && err != io.EOF {
		return err
	}
	if got := bytes.TrimSuffix(first, []byte("\n")); !bytes.Equal(got, hdrLine) {
		return fmt.Errorf("header mismatch: log opened under %s, options build %s", got, hdrLine)
	}
	_, events, err := replay.ReadAll(wlog.NewReader())
	if err != nil {
		return err
	}

	var watermark int64
	if w, payload, ok, err := wlog.LatestSnapshotAtOrBefore(int64(len(events))); err != nil {
		return err
	} else if ok {
		var snap sysSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("decode snapshot at %d: %w", w, err)
		}
		if !bytes.Equal(snap.Header, hdrLine) {
			return fmt.Errorf("snapshot at %d fingerprints a different header", w)
		}
		if snap.Events != w {
			return fmt.Errorf("snapshot file at %d claims watermark %d", w, snap.Events)
		}
		if err := s.restoreSnapshot(&snap); err != nil {
			return fmt.Errorf("restore snapshot at %d: %w", w, err)
		}
		watermark = w
	}
	s.eventIndex = watermark
	return s.reexecuteTail(events, watermark)
}

// restoreSnapshot lays a snapshot onto the virgin system.
func (s *System) restoreSnapshot(snap *sysSnapshot) error {
	s.now = snap.Now
	s.ticks = snap.Ticks
	s.nextTaxi = TaxiID(snap.NextTaxi)
	s.nextReq = RequestID(snap.NextReq)
	for _, rs := range snap.Requests {
		req := fleet.RestoreRequest(rs)
		s.requests[RequestID(req.ID)] = req
	}
	resolve := func(id fleet.RequestID) (*fleet.Request, bool) {
		r, ok := s.requests[RequestID(id)]
		return r, ok
	}
	restored, err := s.engine.RestoreDurable(snap.Engine, resolve)
	if err != nil {
		return err
	}
	s.scheme.RestoreIndexed(restored)
	for _, t := range restored {
		s.taxis[TaxiID(t.ID)] = t
	}
	switch {
	case snap.Queue != nil && s.queue == nil:
		return fmt.Errorf("snapshot carries a queue but QueueDepth is 0")
	case snap.Queue == nil && s.queue != nil:
		return fmt.Errorf("snapshot has no queue but QueueDepth is set")
	case snap.Queue != nil:
		if err := s.queue.RestoreDurable(*snap.Queue, resolve); err != nil {
			return err
		}
	}
	s.engine.Metrics().RestoreCounters(snap.Counters)
	return nil
}

// reexecuteTail drives the WAL events past the snapshot watermark back
// through the public API. s.onEvent intercepts each freshly produced
// event — nothing is re-appended — and diffs it against the recorded
// one; any divergence means the WAL and the engine disagree and recovery
// must fail rather than resurrect a subtly different world.
func (s *System) reexecuteTail(events []replay.Event, watermark int64) error {
	var divs []replay.Divergence
	var actual *replay.Event
	s.onEvent = func(ev replay.Event) { actual = &ev }
	defer func() { s.onEvent = nil }()

	ctx := context.Background()
	for k := range events {
		rec := &events[k]
		if rec.I < watermark {
			continue
		}
		if rec.Metrics != nil {
			// A clean-close counters seal. Verify and keep going: the
			// recovered system resumes the log, it does not end with it.
			divs = append(divs, replay.DiffCounters(rec.I, rec.Metrics.Counters, s.deterministicCounters())...)
			continue
		}
		actual = nil
		switch {
		case rec.AddTaxi != nil:
			s.AddTaxi(Point{Lat: rec.AddTaxi.At.Lat, Lng: rec.AddTaxi.At.Lng}, rec.AddTaxi.Capacity)
		case rec.Request != nil:
			s.SubmitRequest(s.reexecCtx(ctx, rec.I, rec.Request.Out.Err),
				Point{Lat: rec.Request.Pickup.Lat, Lng: rec.Request.Pickup.Lng},
				Point{Lat: rec.Request.Dropoff.Lat, Lng: rec.Request.Dropoff.Lng},
				rec.Request.Flexibility)
		case rec.Hail != nil:
			s.ReportStreetHail(s.reexecCtx(ctx, rec.I, rec.Hail.Out.Err), TaxiID(rec.Hail.Taxi),
				Point{Lat: rec.Hail.Pickup.Lat, Lng: rec.Hail.Pickup.Lng},
				Point{Lat: rec.Hail.Dropoff.Lat, Lng: rec.Hail.Dropoff.Lng},
				rec.Hail.Flexibility)
		case rec.Tick != nil:
			s.Advance(time.Duration(rec.Tick.DNanos))
		default:
			return fmt.Errorf("event %d has unknown kind", rec.I)
		}
		if actual == nil {
			return fmt.Errorf("event %d produced no outcome during re-execution", rec.I)
		}
		divs = append(divs, replay.DiffEvents(rec, actual)...)
		if len(divs) > 0 {
			break
		}
	}
	if len(divs) > 0 {
		return fmt.Errorf("recovered state diverges from the log: %s", divs[0].String())
	}
	return nil
}

// reexecCtx rebuilds the context an event originally ran under. Fault-
// plan cancellations re-inject themselves (MaybeCancel is deterministic
// in the event index); a caller-cancelled context is reconstructed from
// the recorded outcome so the re-executed call fails the same way.
func (s *System) reexecCtx(ctx context.Context, i int64, recordedErr string) context.Context {
	if (recordedErr == "canceled" || recordedErr == "deadline") && !s.faults.CancelsEvent(i) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		return cctx
	}
	return ctx
}

// maybeSnapshot writes a background snapshot when the tick cadence is
// due. Capture is synchronous — the state must be the event boundary's —
// but the (comparatively slow) marshal+fsync happens off the hot path;
// Close waits for in-flight writes.
func (s *System) maybeSnapshot() {
	if s.wlog == nil || s.snapEvery <= 0 || s.onEvent != nil || s.walDone {
		return
	}
	if s.ticks%int64(s.snapEvery) != 0 {
		return
	}
	snap := s.captureSnapshot()
	wlog := s.wlog
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		// The watermark promises every event below it is in the log, so
		// the group-committed tail must be fsynced before the snapshot
		// can become durable — otherwise a crash in between recovers a
		// snapshot carrying events the log lost. A dead WAL skips the
		// snapshot; recovery would reject it anyway.
		if wlog.Sync() != nil {
			return
		}
		// Failures (marshal included) land in Stats.SnapshotErr and the
		// mtshare_wal_snapshot_errors_total counter.
		wlog.WriteSnapshotJSON(snap.Events, snap)
	}()
}

// captureSnapshot serializes the system at the current event boundary.
// Everything captured is a deep copy, so the caller may keep mutating
// the live system while the snapshot marshals in the background.
func (s *System) captureSnapshot() *sysSnapshot {
	snap := &sysSnapshot{
		Header:   s.walHeader,
		Events:   s.eventIndex,
		Now:      s.now,
		Ticks:    s.ticks,
		NextTaxi: int64(s.nextTaxi),
		NextReq:  int64(s.nextReq),
		Engine:   s.engine.CaptureDurable(),
		Counters: s.deterministicCounters(),
	}
	ids := make([]RequestID, 0, len(s.requests))
	for id := range s.requests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		snap.Requests = append(snap.Requests, fleet.CaptureRequest(s.requests[id]))
	}
	if s.queue != nil {
		ps := s.queue.CaptureDurable()
		snap.Queue = &ps
	}
	return snap
}
