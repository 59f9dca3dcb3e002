// Recording and durability: the one record path, the write-ahead log,
// snapshots, and verified recovery.
//
// Every event goes to the RecordTo log and the WAL in the replay-v3
// encoding — record 0 is the header, record i+1 is event i — or, while
// Verify re-executes a log, to the verifier instead. With a snapshot
// cadence a full state snapshot is written in the background every N
// ticks. Opening a WAL over a non-empty directory recovers: the header
// must match byte for byte, the latest usable snapshot is restored, and
// Verify re-executes the tail through the same operations that produced
// it, every outcome diffed against the recorded one. The runtime is
// deterministic, so the recovered state is the state the crashed process
// had committed. mtshare.Replay runs the same verifier from event 0.
package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/mobcluster"
	"repro/internal/replay"
	"repro/internal/wal"
)

// recording reports whether events must be assembled at all.
func (r *Runtime) recording() bool {
	return r.verify != nil || r.rec != nil || r.walEnc != nil
}

// record routes one event: to the verifier during Verify (re-executed
// events are already in the log), otherwise to the RecordTo log and the
// WAL. A sticky WAL append or fsync error is latched in walErr and closes
// the runtime: the caller whose event failed to persist learns it from
// WALErr, and everything after is refused.
func (r *Runtime) record(ev replay.Event) {
	if r.verify != nil {
		r.verify(ev)
		return
	}
	if r.rec != nil {
		r.rec.Encode(ev)
	}
	if r.walEnc == nil {
		return
	}
	r.walEnc.Encode(ev)
	if r.walErr == nil {
		err := r.walEnc.Err()
		if err == nil {
			err = r.wlog.Err() // interval-loop fsync failures surface here first
		}
		if err != nil {
			r.walErr = err
			r.closed = true
		}
	}
	if r.crashAt > 0 && ev.I == r.crashAt {
		r.wlog.Sync()
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
}

// WALErr is the WAL failure latched by the record path, nil while the
// log is healthy.
func (r *Runtime) WALErr() error { return r.walErr }

// WAL is the open write-ahead log, nil without one or after Seal.
func (r *Runtime) WAL() *wal.Log { return r.wlog }

// counters snapshots the counters whose values are a pure function of
// the event stream.
func (r *Runtime) counters() map[string]int64 {
	return replay.DeterministicCounters(r.Engine.Metrics().Snapshot().Counters)
}

// Header is the line that pins a recording to its world: the shell's
// world half, then the runtime's own policy, graph fingerprint and fault
// plan. The same configuration always serialises to the same bytes:
// recovery's header check, replay's and snapshot fingerprinting depend
// on it.
func (r *Runtime) Header(w replay.World) replay.Header {
	return replay.Header{
		Version:          replay.Version,
		Kind:             replay.KindSystem,
		World:            w,
		Policy:           r.policy,
		GraphFingerprint: fmt.Sprintf("%016x", r.Graph.Fingerprint()),
		Faults:           r.faults,
	}
}

// RecordTo starts a replay log on w under the header of world.
func (r *Runtime) RecordTo(w io.Writer, world replay.World) error {
	enc, err := replay.NewEncoder(w, r.Header(world))
	if err != nil {
		return err
	}
	r.rec = enc
	return nil
}

// OpenWAL attaches the write-ahead log to a freshly built runtime: an
// empty directory starts a log with the header of world as record 0, a
// non-empty one is recovered. world must be the same every time the same
// configuration opens the log.
func (r *Runtime) OpenWAL(opts wal.Options, world replay.World) error {
	h := r.Header(world)
	line, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("marshal header: %w", err)
	}
	wlog, err := wal.Open(opts, r.Engine.Metrics())
	if err != nil {
		return err
	}
	if wlog.Records() == 0 {
		r.walEnc, err = replay.NewEncoder(wlog.AppendWriter(), h)
	} else if err = r.recover(wlog, line); err != nil {
		err = fmt.Errorf("recover: %w", err)
	} else {
		r.walEnc = replay.ResumeEncoder(wlog.AppendWriter())
	}
	if err != nil {
		wlog.Close()
		return err
	}
	r.wlog, r.walHeader, r.snapEvery = wlog, line, opts.SnapshotEveryTicks
	return nil
}

// Seal closes the recording: the deterministic counters are appended as
// the closing record (recovery verifies them), in-flight snapshot writes
// are drained and the WAL is closed. It reports the first write error.
// Sealing twice is harmless.
func (r *Runtime) Seal() error {
	if r.rec != nil || r.walEnc != nil {
		r.record(replay.Event{I: r.events, Metrics: &replay.MetricsRecord{Counters: r.counters()}})
	}
	var err error
	if r.rec != nil {
		err = r.rec.Err()
		r.rec = nil
	}
	if r.walEnc != nil {
		if e := r.walEnc.Err(); err == nil {
			err = e
		}
		r.walEnc = nil
	}
	if r.wlog != nil {
		r.snapWG.Wait()
		if e := r.wlog.Close(); err == nil {
			err = e
		}
		r.wlog = nil
	}
	return err
}

// WaitSnapshots blocks until every background snapshot write finished.
func (r *Runtime) WaitSnapshots() { r.snapWG.Wait() }

// snapshotVersion is the snapshot schema Capture writes. Recovery skips a
// snapshot of any other version, as it skips another world's, and
// replays the log instead, so no older schema is ever decoded.
const snapshotVersion = 2

// Snapshot is the runtime at an event boundary, and the one declaration
// of the snapshot schema. Header pins it to the world it was taken in;
// Events is the WAL watermark (events executed when it was captured — the
// number the snapshot file is named after). Requests[i] is request i+1
// and Taxis[i] is taxi i+1; restore refuses a table that breaks this
// density. Clusters and CruiseDraws are the engine's mobility state,
// Queue the pending queue (nil without one), Counters the deterministic
// counters.
type Snapshot struct {
	Version     int              `json:"version"`
	Header      json.RawMessage  `json:"header"`
	Events      int64            `json:"events"`
	Now         float64          `json:"now"`
	Ticks       int64            `json:"ticks"`
	Requests    []Request        `json:"requests,omitempty"`
	Taxis       []SnapshotTaxi   `json:"taxis,omitempty"`
	Clusters    mobcluster.State `json:"clusters"`
	CruiseDraws int64            `json:"cruise_draws,omitempty"`
	Queue       *match.PoolState `json:"queue,omitempty"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// SnapshotTaxi is one taxi in a snapshot: its state, its partition-index
// rows, and the requests its open episode delivered so far, in dropoff
// order — the settlement that order feeds cannot be rebuilt from the
// ledger when two dropoffs share an odometer reading.
type SnapshotTaxi struct {
	fleet.TaxiState
	Rows    []index.Row `json:"rows,omitempty"`
	Episode []int64     `json:"episode,omitempty"`
}

// Capture snapshots the runtime at the current event boundary. It is a
// deep copy: the runtime may keep mutating while it marshals.
func (r *Runtime) Capture() *Snapshot {
	snap := &Snapshot{
		Version:  snapshotVersion,
		Header:   r.walHeader,
		Events:   r.events,
		Now:      r.now,
		Ticks:    r.ticks,
		Requests: make([]Request, len(r.requests)),
		Taxis:    make([]SnapshotTaxi, len(r.taxis)),
		Counters: r.counters(),
	}
	reqs := make([]fleet.Request, len(r.requests))
	for i, st := range r.requests {
		reqs[i] = *st.Req
		snap.Requests[i] = Request{&reqs[i], st.Lifecycle}
	}
	for i, t := range r.taxis {
		st := &snap.Taxis[i]
		st.TaxiState, st.Rows = t.DurableState(), r.Engine.IndexRows(t.ID)
		for _, ride := range r.episodes[i] {
			st.Episode = append(st.Episode, int64(ride.Req.ID))
		}
	}
	snap.Clusters, snap.CruiseDraws = r.Engine.Mobility()
	if r.Queue != nil {
		ps := r.Queue.CaptureDurable()
		snap.Queue = &ps
	}
	return snap
}

// maybeSnapshot writes a background snapshot when the tick cadence is
// due. Capture is synchronous — the state must be this event boundary's —
// while the marshal and fsync run off the hot path; Seal drains them.
func (r *Runtime) maybeSnapshot() {
	if r.walEnc == nil || r.snapEvery <= 0 || r.ticks%int64(r.snapEvery) != 0 {
		return
	}
	snap := r.Capture()
	wlog := r.wlog
	r.snapWG.Add(1)
	go func() {
		defer r.snapWG.Done()
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

// recover rebuilds the runtime from the log: header check, snapshot
// restore, verified tail re-execution.
func (r *Runtime) recover(wlog *wal.Log, line []byte) error {
	// Record 0 must be byte-identical to the header this world was built
	// from — otherwise the WAL belongs to another configuration and
	// replaying it here would silently produce a different world.
	first, err := bufio.NewReader(wlog.NewReader()).ReadBytes('\n')
	if err != nil && err != io.EOF {
		return err
	}
	if got := bytes.TrimSuffix(first, []byte("\n")); !bytes.Equal(got, line) {
		return fmt.Errorf("header mismatch: log recorded under %s, this configuration builds %s", got, line)
	}
	_, events, err := replay.ReadAll(wlog.NewReader())
	if err != nil {
		return err
	}
	// A snapshot may not be ahead of the log. A seal record takes no event
	// index, so the bound counts events, not records.
	var logged int64
	for k := range events {
		if events[k].Metrics == nil {
			logged++
		}
	}
	var watermark int64
	for bound := logged; ; {
		w, payload, ok, err := wlog.LatestSnapshotAtOrBefore(bound)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var snap Snapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("decode snapshot at %d: %w", w, err)
		}
		if snap.Version != snapshotVersion || !bytes.Equal(snap.Header, line) {
			// Another schema's or another world's snapshot: the log is the
			// truth, so fall back to an older snapshot or to genesis.
			bound = w - 1
			continue
		}
		if snap.Events != w {
			return fmt.Errorf("snapshot file at %d claims watermark %d", w, snap.Events)
		}
		if err := r.restore(&snap); err != nil {
			return fmt.Errorf("restore snapshot at %d: %w", w, err)
		}
		watermark = w
		break
	}
	r.events = watermark
	// A divergence means the log and the runtime disagree: recovery fails
	// rather than resurrect a subtly different world.
	if divs := r.Verify(events, watermark); len(divs) > 0 {
		return fmt.Errorf("recovered state diverges from the log: %s", divs[0])
	}
	return nil
}

// restore lays a snapshot onto the freshly built runtime.
func (r *Runtime) restore(snap *Snapshot) error {
	r.now, r.ticks = snap.Now, snap.Ticks
	for i := range snap.Requests {
		st := &snap.Requests[i]
		if st.Req == nil || st.Req.ID != fleet.RequestID(i+1) { // the table is indexed by ID
			return fmt.Errorf("request table slot %d does not hold request %d", i+1, i+1)
		}
		r.requests = append(r.requests, st)
	}
	resolve := func(id fleet.RequestID) (*fleet.Request, bool) {
		if st, ok := r.Request(int64(id)); ok {
			return st.Req, true
		}
		return nil, false
	}
	scheme := r.Scheme.(*match.Scheme)
	for i, ts := range snap.Taxis {
		if ts.ID != int64(i+1) { // as is the taxi table
			return fmt.Errorf("taxi table slot %d holds taxi %d", i+1, ts.ID)
		}
		t, err := fleet.RestoreTaxi(r.Graph, ts.TaxiState, resolve)
		if err != nil {
			return err
		}
		if err := scheme.RestoreTaxi(t, ts.Rows); err != nil {
			return err
		}
		var episode []*Request
		for _, id := range ts.Episode {
			st, ok := r.Request(id)
			if !ok {
				return fmt.Errorf("episode of taxi %d holds unknown request %d", ts.ID, id)
			}
			episode = append(episode, st)
		}
		r.taxis, r.episodes = append(r.taxis, t), append(r.episodes, episode)
	}
	if err := r.Engine.RestoreMobility(snap.Clusters, snap.CruiseDraws); err != nil {
		return err
	}
	switch {
	case snap.Queue != nil && r.Queue == nil:
		return fmt.Errorf("snapshot carries a queue but QueueDepth is 0")
	case snap.Queue == nil && r.Queue != nil:
		return fmt.Errorf("snapshot has no queue but QueueDepth is set")
	case snap.Queue != nil:
		if err := r.Queue.RestoreDurable(*snap.Queue, resolve); err != nil {
			return err
		}
	}
	r.Engine.Metrics().RestoreCounters(snap.Counters)
	return nil
}

// Verify re-executes the recorded events from index from on, with the
// verifier intercepting what each records — nothing is appended to any
// log. It diffs every fresh outcome against the recorded one and every
// seal's counters against the runtime's, and returns every divergence in
// log order. A seal mid-log (a clean close) is checked and passed: the
// runtime resumes the log, it does not end with it.
func (r *Runtime) Verify(events []replay.Event, from int64) []replay.Divergence {
	var actual replay.Event
	r.verify = func(ev replay.Event) { actual = ev }
	defer func() { r.verify = nil }()

	var divs []replay.Divergence
	for k := range events {
		rec := &events[k]
		switch {
		case rec.I < from:
		case rec.Metrics != nil:
			divs = append(divs, replay.DiffCounters(rec.I, rec.Metrics.Counters, r.counters())...)
		default:
			actual = replay.Event{} // an event that records nothing diffs as a kind mismatch
			r.apply(rec)
			divs = append(divs, replay.DiffEvents(rec, &actual)...)
		}
	}
	return divs
}

// apply re-executes the call a recorded event carries, under the context
// it ran under.
func (r *Runtime) apply(ev *replay.Event) {
	pt := func(p replay.Point) geo.Point { return geo.Point{Lat: p.Lat, Lng: p.Lng} }
	switch {
	case ev.AddTaxi != nil:
		r.AddTaxi(pt(ev.AddTaxi.At), ev.AddTaxi.Capacity)
	case ev.Request != nil:
		q := ev.Request
		r.Submit(r.reexecCtx(ev.I, q.Out.Err), r.NewRide(pt(q.Pickup), pt(q.Dropoff), q.Flexibility))
	case ev.Hail != nil:
		h := ev.Hail
		r.Hail(r.reexecCtx(ev.I, h.Out.Err), h.Taxi, r.NewRide(pt(h.Pickup), pt(h.Dropoff), h.Flexibility))
	case ev.Tick != nil:
		r.Tick(time.Duration(ev.Tick.DNanos), false)
	}
}

// reexecCtx rebuilds the context an event originally ran under. Fault-
// plan cancellations re-inject themselves (MaybeCancel is deterministic
// in the event index); a caller-cancelled context is rebuilt from the
// recorded outcome so the re-executed call fails the same way.
func (r *Runtime) reexecCtx(i int64, recorded string) context.Context {
	ctx := context.Background()
	if (recorded == Canceled || recorded == Deadline) && !r.faults.CancelsEvent(i) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		return cctx
	}
	return ctx
}
