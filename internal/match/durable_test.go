package match

import (
	"encoding/json"
	"testing"

	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/mobcluster"
	"repro/internal/obs"
)

// driveDurableWorld puts an engine through a representative slice of its
// lifecycle — taxis added, requests committed, motion advanced past
// pickups, a cruise plan drawn — and returns the committed requests so
// the test can build a resolver.
func driveDurableWorld(t *testing.T, env *testEnv, d *Engine) map[fleet.RequestID]*fleet.Request {
	t.Helper()
	placeFleetOn(d, env, 12, 7)
	reqs := make(map[fleet.RequestID]*fleet.Request)
	committed := 0
	for i := int64(1); i <= 24 && committed < 6; i++ {
		o := env.vertexNear(t, 0.1+0.03*float64(i%8), 0.1+0.05*float64(i%5))
		dst := env.vertexNear(t, 0.9-0.04*float64(i%6), 0.85-0.03*float64(i%7))
		req := env.request(i, o, dst, 0, 2.5)
		a, ok := d.Dispatch(req, 0, false)
		if !ok {
			continue
		}
		if err := d.Commit(a, 0); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		reqs[req.ID] = req
		committed++
	}
	if committed == 0 {
		t.Fatal("no request committed; world too small")
	}
	// Advance part of the fleet so some schedules have fired pickups and
	// plans are mid-edge, then reindex as the sim loop would.
	for id := int64(1); id <= 12; id++ {
		taxi, ok := d.Taxi(id)
		if !ok {
			t.Fatalf("taxi %d missing", id)
		}
		taxi.Advance(150 * float64(id%4))
		d.ReindexTaxi(taxi, 10)
	}
	// Draw a cruise plan so the sampler position is non-zero.
	for id := int64(1); id <= 12; id++ {
		taxi, _ := d.Taxi(id)
		if taxi.Empty() && len(taxi.Route()) <= 1 {
			d.CruisePlan(taxi)
			break
		}
	}
	return reqs
}

func resolverFor(reqs map[fleet.RequestID]*fleet.Request) RequestResolver {
	return func(id fleet.RequestID) (*fleet.Request, bool) {
		r, ok := reqs[id]
		return r, ok
	}
}

// newQueue builds a pending queue at env's engine speed.
func newQueue(env *testEnv, capacity int) *PendingQueue {
	return NewPendingQueue(capacity, env.e.Config().SpeedMps)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// engineState is what a snapshot holds of an engine: each taxi's state
// and index rows in ID order, the clusters and the cruise position.
type engineState struct {
	Taxis       []fleet.TaxiState
	Rows        [][]index.Row
	Clusters    mobcluster.State
	CruiseDraws int64
}

func captureEngine(e *Engine) engineState {
	var st engineState
	for id := int64(1); id <= int64(e.NumTaxis()); id++ {
		t, _ := e.Taxi(id)
		st.Taxis = append(st.Taxis, t.DurableState())
		st.Rows = append(st.Rows, e.IndexRows(id))
	}
	st.Clusters, st.CruiseDraws = e.Mobility()
	return st
}

// restoreEngine lays st onto e through s when it is set, as the runtime
// does, and through the engine alone otherwise.
func restoreEngine(e *Engine, st engineState, resolve RequestResolver) ([]*fleet.Taxi, error) {
	var out []*fleet.Taxi
	for i, ts := range st.Taxis {
		t, err := fleet.RestoreTaxi(e.g, ts, resolve)
		if err != nil {
			return nil, err
		}
		if err := e.RestoreTaxi(t, st.Rows[i]); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, e.RestoreMobility(st.Clusters, st.CruiseDraws)
}

// roundTrip captures src, restores into dst, and asserts dst's own
// capture is byte-identical.
func roundTrip(t *testing.T, src, dst *Engine, reqs map[fleet.RequestID]*fleet.Request) {
	t.Helper()
	st := captureEngine(src)
	if _, err := restoreEngine(dst, st, resolverFor(reqs)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got, want := mustJSON(t, captureEngine(dst)), mustJSON(t, st)
	if got != want {
		t.Fatalf("re-capture differs from snapshot:\n got %s\nwant %s", got, want)
	}
	if dst.NumTaxis() != src.NumTaxis() {
		t.Fatalf("NumTaxis = %d, want %d", dst.NumTaxis(), src.NumTaxis())
	}
	// The disc memo is a cache of searches run, not state a snapshot carries.
	if got, want := dst.IndexMemoryBytes()-dst.DiscMemoBytes(), src.IndexMemoryBytes()-src.DiscMemoBytes(); got != want {
		t.Fatalf("IndexMemoryBytes without the disc memo = %d, want %d", got, want)
	}
	if got, want := mustJSON(t, dst.ClusterStats()), mustJSON(t, src.ClusterStats()); got != want {
		t.Fatalf("ClusterStats = %s, want %s", got, want)
	}
}

func TestEngineDurableRoundTrip(t *testing.T) {
	env := newTestEnv(t, nil)
	reqs := driveDurableWorld(t, env, env.e)

	fresh, err := NewEngine(env.pt, env.spx, env.e.Config())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, env.e, fresh, reqs)

	// A restored dispatcher must keep working: the next dispatch decision
	// must match the original engine's.
	next := env.request(1000, env.vertexNear(t, 0.3, 0.3), env.vertexNear(t, 0.7, 0.6), 20, 2.5)
	nextCopy := *next
	a1, ok1 := env.e.Dispatch(next, 20, false)
	a2, ok2 := fresh.Dispatch(&nextCopy, 20, false)
	if ok1 != ok2 {
		t.Fatalf("post-restore dispatch diverged: ok %v vs %v", ok1, ok2)
	}
	if ok1 && a1.Taxi.ID != a2.Taxi.ID {
		t.Fatalf("post-restore dispatch picked taxi %d, original %d", a2.Taxi.ID, a1.Taxi.ID)
	}
}

func TestRestoreDurableRejectsNonEmpty(t *testing.T) {
	env := newTestEnv(t, nil)
	reqs := driveDurableWorld(t, env, env.e)
	if _, err := restoreEngine(env.e, captureEngine(env.e), resolverFor(reqs)); err == nil {
		t.Fatal("restoring a registered taxi must fail")
	}
}

func TestRestoreDurableUnknownRequest(t *testing.T) {
	env := newTestEnv(t, nil)
	_ = driveDurableWorld(t, env, env.e)
	st := captureEngine(env.e)
	fresh, err := NewEngine(env.pt, env.spx, env.e.Config())
	if err != nil {
		t.Fatal(err)
	}
	empty := func(fleet.RequestID) (*fleet.Request, bool) { return nil, false }
	if _, err := restoreEngine(fresh, st, empty); err == nil {
		t.Fatal("restore with unresolvable requests must fail")
	}
}

func TestQueueDurableRoundTrip(t *testing.T) {
	env := newTestEnv(t, nil)
	reg, freshReg := obs.NewRegistry(), obs.NewRegistry()
	q := newQueue(env, 8).InstrumentWith(reg)
	reqs := make(map[fleet.RequestID]*fleet.Request)
	for i := int64(1); i <= 5; i++ {
		req := env.request(i, env.vertexNear(t, 0.2, 0.2), env.vertexNear(t, 0.8, 0.8), 0, 3+float64(i))
		if !q.Push(req, 0).Accepted() {
			t.Fatalf("push %d rejected", i)
		}
		reqs[req.ID] = req
	}
	q.NextBatch() // bump retries
	if q.MarkServed(reqs[3].ID, 5) == nil {
		t.Fatal("MarkServed failed")
	}
	delete(reqs, 3)

	st := q.CaptureDurable()
	fresh := newQueue(env, 8).InstrumentWith(freshReg)
	if err := fresh.RestoreDurable(st, resolverFor(reqs)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// The lifecycle counts come back once, with the host's counters.
	freshReg.RestoreCounters(reg.Snapshot().Counters)
	if got, want := mustJSON(t, fresh.CaptureDurable()), mustJSON(t, st); got != want {
		t.Fatalf("queue re-capture differs:\n got %s\nwant %s", got, want)
	}
	if got, want := mustJSON(t, fresh.Stats()), mustJSON(t, q.Stats()); got != want {
		t.Fatalf("queue stats differ: got %s want %s", got, want)
	}
	// Restored heap must drain in the same deterministic order.
	b1, b2 := q.NextBatch(), fresh.NextBatch()
	if len(b1) != len(b2) {
		t.Fatalf("batch lengths differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i].Req.ID != b2[i].Req.ID || b1[i].Retries != b2[i].Retries {
			t.Fatalf("batch item %d differs: (%d,%d) vs (%d,%d)",
				i, b1[i].Req.ID, b1[i].Retries, b2[i].Req.ID, b2[i].Retries)
		}
	}
}

func TestQueueRestoreValidation(t *testing.T) {
	env := newTestEnv(t, nil)
	req := env.request(1, env.vertexNear(t, 0.2, 0.2), env.vertexNear(t, 0.8, 0.8), 0, 4)
	reqs := map[fleet.RequestID]*fleet.Request{req.ID: req}

	q := newQueue(env, 8)
	q.Push(req, 0)
	st := q.CaptureDurable()

	// Non-empty target.
	busy := newQueue(env, 8)
	busy.Push(req, 0)
	if err := busy.RestoreDurable(st, resolverFor(reqs)); err == nil {
		t.Fatal("restore into non-empty queue must fail")
	}
	// Capacity mismatch.
	if err := newQueue(env, 4).RestoreDurable(st, resolverFor(reqs)); err == nil {
		t.Fatal("capacity mismatch must fail")
	}
	// Unknown request.
	empty := func(fleet.RequestID) (*fleet.Request, bool) { return nil, false }
	if err := newQueue(env, 8).RestoreDurable(st, empty); err == nil {
		t.Fatal("unknown queued request must fail")
	}
}

func TestSchemeRestoreIndexed(t *testing.T) {
	env := newTestEnv(t, nil)
	reqs := driveDurableWorld(t, env, env.e)
	st := captureEngine(env.e)

	fresh, err := NewEngine(env.pt, env.spx, env.e.Config())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := restoreEngine(fresh, st, resolverFor(reqs))
	if err != nil {
		t.Fatal(err)
	}
	// OnTaxiAdvanced compares Home with the taxi's partition: restore must
	// leave it where the live engine had it, the taxi's current partition.
	for _, taxi := range restored {
		want := fresh.Partitioning().PartitionOf(taxi.At())
		if got, ok := fresh.pindex.Home(taxi.ID); !ok || got != want {
			t.Fatalf("taxi %d Home = %v (ok=%v), want %v", taxi.ID, got, ok, want)
		}
		if live, _ := env.e.pindex.Home(taxi.ID); live != want {
			t.Fatalf("taxi %d: live Home %v, restored %v", taxi.ID, live, want)
		}
	}
}

func TestCruiseSamplerFastForward(t *testing.T) {
	env := newTestEnv(t, nil)
	a := env.e.cruise
	for i := 0; i < 5; i++ {
		a.next()
	}
	fresh, err := NewEngine(env.pt, env.spx, env.e.Config())
	if err != nil {
		t.Fatal(err)
	}
	b := fresh.cruise
	if err := b.fastForward(a.drawCount()); err != nil {
		t.Fatal(err)
	}
	if a.drawCount() != b.drawCount() {
		t.Fatalf("draw counts differ: %d vs %d", a.drawCount(), b.drawCount())
	}
	for i := 0; i < 3; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("draw %d differs: %v vs %v", i, x, y)
		}
	}
	if err := b.fastForward(0); err == nil {
		t.Fatal("fast-forward backwards must fail")
	}
}
