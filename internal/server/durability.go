// Durable server state: WAL recording, snapshots, and crash recovery
// for the HTTP dispatch service.
//
// With Config.Durability enabled every state-changing API event is
// appended to the crash-safe WAL in the replay-v3 encoding (record 0 is
// the header, record i+1 is event i), a full state snapshot is written
// in the background every SnapshotEveryTicks movement ticks, and New
// over a non-empty WAL directory rebuilds the previous process's exact
// state: the header must match byte for byte, the latest valid snapshot
// is restored, and the tail is re-executed through the same locked core
// functions that produced it, with every re-executed outcome diffed
// against the recorded one. The engine is deterministic, so recovery is
// byte-identical to the state the crashed process had committed.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/replay"
	"repro/internal/wal"
)

// serverReqState is one request's full API-visible lifecycle in a
// snapshot.
type serverReqState struct {
	Req       fleet.RequestState `json:"req"`
	TaxiID    int64              `json:"taxi_id,omitempty"`
	Served    bool               `json:"served,omitempty"`
	Queued    bool               `json:"queued,omitempty"`
	Expired   bool               `json:"expired,omitempty"`
	PickedUp  bool               `json:"picked_up,omitempty"`
	Delivered bool               `json:"delivered,omitempty"`
	Fare      float64            `json:"fare,omitempty"`
}

// serverSnapshot is the serialized form of the whole service at an
// event boundary. Header fingerprints the world (config + graph) the
// snapshot was taken in; Events is the WAL watermark the snapshot file
// is named after.
type serverSnapshot struct {
	Header   json.RawMessage     `json:"header"`
	Events   int64               `json:"events"`
	Now      float64             `json:"now"`
	Ticks    int64               `json:"ticks"`
	NextTaxi int64               `json:"next_taxi"`
	NextReq  int64               `json:"next_req"`
	Requests []serverReqState    `json:"requests,omitempty"`
	Engine   *match.DurableState `json:"engine"`
	Queue    *match.PoolState    `json:"queue,omitempty"`
	Counters map[string]int64    `json:"counters,omitempty"`
}

// buildWALHeader pins the WAL to the world it records: reopening with a
// different configuration (or a different road graph) must be refused,
// not silently replayed into a diverging state.
func (s *Server) buildWALHeader() replay.Header {
	return replay.Header{
		Version:          replay.Version,
		Kind:             replay.KindSystem,
		Seed:             s.cfg.Seed,
		Rows:             s.cfg.CityRows,
		Cols:             s.cfg.CityCols,
		Partitions:       s.kappa,
		SpeedKmh:         s.engine.Config().SpeedMps * 3.6,
		Probabilistic:    s.cfg.Probabilistic,
		QueueDepth:       s.cfg.QueueDepth,
		RetryEveryTicks:  s.cfg.RetryEveryTicks,
		GraphFingerprint: fmt.Sprintf("%016x", s.g.Fingerprint()),
	}
}

// openDurability attaches the WAL to the freshly built (still virgin)
// server: a fresh directory starts a new log with the header as record
// 0; a non-empty one triggers recovery, after which New's seeding loop
// only tops up whatever AddTaxi events the log already replayed.
func (s *Server) openDurability() error {
	hdr := s.buildWALHeader()
	hdrLine, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("server: durability: marshal header: %w", err)
	}
	wlog, err := wal.Open(s.cfg.Durability, s.reg)
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
			return fmt.Errorf("server: durability: recover: %w", err)
		}
		s.walEnc = replay.ResumeEncoder(wlog.AppendWriter())
	}
	s.wlog = wlog
	s.walHeader = hdrLine
	s.snapEvery = s.cfg.Durability.SnapshotEveryTicks
	return nil
}

// recordingLocked reports whether events should be assembled at all —
// either for the WAL or for the recovery verifier.
func (s *Server) recordingLocked() bool {
	return s.walEnc != nil || s.onEvent != nil
}

// recordLocked stamps ev with the next event index and appends it to
// the WAL — or hands it to the recovery verifier, which never
// re-appends. A sticky append or fsync error stops the whole service:
// the server must not keep acknowledging work it is no longer
// persisting, so the error is latched in walErr (handlers fail the
// triggering request with it) and stopped rejects everything after.
// When the configured crash point is reached the record is fsynced and
// the process SIGKILLs itself: the harness's deterministic stand-in for
// a power cut.
func (s *Server) recordLocked(ev replay.Event) {
	ev.I = s.eventIdx
	s.eventIdx++
	if s.onEvent != nil {
		s.onEvent(ev)
		return
	}
	if s.walEnc == nil {
		return
	}
	s.walEnc.Encode(ev)
	if s.walErr == nil {
		err := s.walEnc.Err()
		if err == nil {
			err = s.wlog.Err() // interval-loop fsync failures surface here first
		}
		if err != nil {
			s.walErr = err
			s.stopped = true
		}
	}
	if s.cfg.CrashAtEvent > 0 && ev.I == s.cfg.CrashAtEvent {
		s.wlog.Sync()
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
}

// eventCtx picks the dispatch context: with durability on, a recorded
// outcome must not depend on the client hanging up mid-dispatch, so the
// request context is dropped.
func (s *Server) eventCtx(r *http.Request) context.Context {
	if s.wlog != nil || s.onEvent != nil {
		return context.Background()
	}
	return r.Context()
}

// sealWALLocked closes a live WAL: the deterministic counters are
// appended as the closing Metrics record (recovery verifies them), in-
// flight snapshot writes are drained, and the log is fsynced shut.
func (s *Server) sealWALLocked() {
	if s.walEnc == nil {
		return
	}
	s.recordLocked(replay.Event{Metrics: &replay.MetricsRecord{
		Counters: s.deterministicCountersLocked(),
	}})
	s.walEnc = nil
	s.snapWG.Wait()
	s.wlog.Close()
}

func (s *Server) deterministicCountersLocked() map[string]int64 {
	return replay.DeterministicCounters(s.reg.Snapshot().Counters)
}

// recoverFromWAL rebuilds the server from the log: header check,
// snapshot restore, verified tail re-execution.
func (s *Server) recoverFromWAL(wlog *wal.Log, hdrLine []byte) error {
	first, err := bufio.NewReader(wlog.NewReader()).ReadBytes('\n')
	if err != nil && err != io.EOF {
		return err
	}
	if got := bytes.TrimSuffix(first, []byte("\n")); !bytes.Equal(got, hdrLine) {
		return fmt.Errorf("header mismatch: log recorded under %s, config builds %s", got, hdrLine)
	}
	_, events, err := replay.ReadAll(wlog.NewReader())
	if err != nil {
		return err
	}
	var watermark int64
	if w, payload, ok, err := wlog.LatestSnapshotAtOrBefore(int64(len(events))); err != nil {
		return err
	} else if ok {
		var snap serverSnapshot
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
	s.eventIdx = watermark
	return s.reexecuteTail(events, watermark)
}

// restoreSnapshot lays a snapshot onto the virgin server.
func (s *Server) restoreSnapshot(snap *serverSnapshot) error {
	s.nowSeconds = snap.Now
	s.tickCount = snap.Ticks
	s.nextTaxi = snap.NextTaxi
	s.nextReq = snap.NextReq
	for _, rs := range snap.Requests {
		req := fleet.RestoreRequest(rs.Req)
		s.requests[req.ID] = &reqStatus{
			Req: req, TaxiID: rs.TaxiID, Served: rs.Served, Queued: rs.Queued,
			Expired: rs.Expired, PickedUp: rs.PickedUp, Delivered: rs.Delivered, Fare: rs.Fare,
		}
	}
	resolve := func(id fleet.RequestID) (*fleet.Request, bool) {
		st, ok := s.requests[id]
		if !ok {
			return nil, false
		}
		return st.Req, true
	}
	restored, err := s.engine.RestoreDurable(snap.Engine, resolve)
	if err != nil {
		return err
	}
	s.scheme.RestoreIndexed(restored)
	for _, t := range restored {
		s.taxis[t.ID] = t
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
	s.reg.RestoreCounters(snap.Counters)
	return nil
}

// reexecuteTail drives the WAL events past the snapshot watermark back
// through the locked core functions. onEvent intercepts each freshly
// assembled event — nothing is re-appended — and it is diffed against
// the recorded one; a divergence means the log and the engine disagree,
// and recovery fails rather than resurrect a subtly different world.
func (s *Server) reexecuteTail(events []replay.Event, watermark int64) error {
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
			// A clean-shutdown counters seal mid-log: verify it and keep
			// going — the recovered server resumes the log.
			if divs := replay.DiffCounters(rec.I, rec.Metrics.Counters, s.deterministicCountersLocked()); len(divs) > 0 {
				return fmt.Errorf("recovered counters diverge from the log: %s", divs[0].String())
			}
			continue
		}
		actual = nil
		switch {
		case rec.AddTaxi != nil:
			s.addTaxiLocked(geo.Point{Lat: rec.AddTaxi.At.Lat, Lng: rec.AddTaxi.At.Lng}, rec.AddTaxi.Capacity)
		case rec.Request != nil:
			s.dispatchLocked(ctx,
				pointJSON{Lat: rec.Request.Pickup.Lat, Lng: rec.Request.Pickup.Lng},
				pointJSON{Lat: rec.Request.Dropoff.Lat, Lng: rec.Request.Dropoff.Lng},
				rec.Request.Flexibility)
		case rec.Hail != nil:
			s.hailLocked(ctx, rec.Hail.Taxi,
				pointJSON{Lat: rec.Hail.Pickup.Lat, Lng: rec.Hail.Pickup.Lng},
				pointJSON{Lat: rec.Hail.Dropoff.Lat, Lng: rec.Hail.Dropoff.Lng},
				rec.Hail.Flexibility)
		case rec.Tick != nil:
			s.advanceTickLocked(rec.Tick.DNanos)
		default:
			return fmt.Errorf("event %d has unknown kind", rec.I)
		}
		if actual == nil {
			return fmt.Errorf("event %d produced no outcome during re-execution", rec.I)
		}
		if divs := replay.DiffEvents(rec, actual); len(divs) > 0 {
			return fmt.Errorf("recovered state diverges from the log: %s", divs[0].String())
		}
	}
	return nil
}

// maybeSnapshotLocked writes a background snapshot when the movement-
// tick cadence is due. Capture is synchronous (the state must be this
// event boundary's); the marshal and fsync run off the hot path, and
// sealWALLocked drains them.
func (s *Server) maybeSnapshotLocked() {
	if s.wlog == nil || s.snapEvery <= 0 || s.onEvent != nil || s.walEnc == nil {
		return
	}
	if s.tickCount%int64(s.snapEvery) != 0 {
		return
	}
	snap := s.captureSnapshotLocked()
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

// captureSnapshotLocked serializes the server at the current event
// boundary. Everything captured is a deep copy, so the live server may
// keep mutating while the snapshot marshals in the background.
func (s *Server) captureSnapshotLocked() *serverSnapshot {
	snap := &serverSnapshot{
		Header:   s.walHeader,
		Events:   s.eventIdx,
		Now:      s.nowSeconds,
		Ticks:    s.tickCount,
		NextTaxi: s.nextTaxi,
		NextReq:  s.nextReq,
		Engine:   s.engine.CaptureDurable(),
		Counters: s.deterministicCountersLocked(),
	}
	ids := make([]fleet.RequestID, 0, len(s.requests))
	for id := range s.requests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := s.requests[id]
		snap.Requests = append(snap.Requests, serverReqState{
			Req: fleet.CaptureRequest(st.Req), TaxiID: st.TaxiID, Served: st.Served,
			Queued: st.Queued, Expired: st.Expired, PickedUp: st.PickedUp,
			Delivered: st.Delivered, Fare: st.Fare,
		})
	}
	if s.queue != nil {
		ps := s.queue.CaptureDurable()
		snap.Queue = &ps
	}
	return snap
}

// handleDurability reports the WAL's live statistics; with ?state=1 it
// additionally serializes the full engine snapshot — the byte-
// comparable state surface the crash-recovery harness diffs across a
// kill -9. Without durability it answers {"enabled": false}.
func (s *Server) handleDurability(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, http.MethodGet)
		return
	}
	s.mu.Lock()
	if s.wlog == nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]interface{}{"enabled": false})
		return
	}
	st := s.wlog.Stats()
	out := map[string]interface{}{
		"enabled":              true,
		"events":               s.eventIdx,
		"snapshot_every_ticks": s.snapEvery,
		"wal":                  st,
	}
	if r.URL.Query().Get("state") != "" {
		out["state"] = s.captureSnapshotLocked()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleAdvance drives the simulated clock under ManualClock: POST
// {"d_seconds": 4.0} runs exactly one movement tick. With the wall-
// clock ticker active the route refuses — two clocks would race.
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, r, http.MethodPost)
		return
	}
	if !s.cfg.ManualClock {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "manual clock disabled")
		return
	}
	var body struct {
		DSeconds float64 `json:"d_seconds"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return
	}
	if body.DSeconds <= 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "d_seconds must be positive")
		return
	}
	s.lockTimed(s.lockWait.advance)
	if s.rejectIfStoppedLocked(w) {
		s.mu.Unlock()
		return
	}
	s.advanceTickLocked(int64(time.Duration(body.DSeconds * float64(time.Second))))
	now, n, walErr := s.nowSeconds, s.eventIdx, s.walErr
	s.mu.Unlock()
	if walErr != nil {
		writeWALFailed(w, walErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"sim_seconds": now, "events": n})
}
