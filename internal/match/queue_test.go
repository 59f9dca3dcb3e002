package match

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// queueRequest builds a request whose pickup deadline is exactly pd
// seconds (delivery deadline = pd + direct travel time).
func queueRequest(id int64, pd, speed float64) *fleet.Request {
	direct := 1000.0
	return &fleet.Request{
		ID:           fleet.RequestID(id),
		Origin:       0,
		Dest:         1,
		Deadline:     time.Duration((pd + direct/speed) * float64(time.Second)),
		DirectMeters: direct,
		Passengers:   1,
	}
}

func TestPendingQueueOrderAndBackpressure(t *testing.T) {
	const speed = 10.0
	q := NewPendingQueue(3, speed).InstrumentWith(obs.NewRegistry())
	// Push out of deadline order; batches must come back sorted by
	// (pickup deadline, request ID).
	if !q.Push(queueRequest(3, 300, speed), 0).Accepted() ||
		!q.Push(queueRequest(1, 100, speed), 0).Accepted() ||
		!q.Push(queueRequest(2, 100, speed), 0).Accepted() {
		t.Fatal("push rejected below capacity")
	}
	// Full: explicit backpressure, named as such.
	if got := q.Push(queueRequest(4, 50, speed), 0); got != PushRejectedFull {
		t.Fatalf("push past capacity = %v, want PushRejectedFull", got)
	}
	// Double-push of a parked request is a no-op, not a reject.
	if !q.Push(queueRequest(1, 100, speed), 0).Accepted() {
		t.Fatal("re-push of parked request rejected")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	batch := q.NextBatch()
	ids := make([]int64, len(batch))
	for i, it := range batch {
		ids[i] = int64(it.Req.ID)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("batch order = %v, want [1 2 3]", ids)
	}
	if batch[0].Retries != 1 {
		t.Fatalf("Retries = %d after one batch", batch[0].Retries)
	}
	st := q.Stats()
	if st.Enqueued != 3 || st.Rejected != 1 || st.Retries != 3 || st.Depth != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPendingQueueExpiryIsStrict(t *testing.T) {
	const speed = 10.0
	q := NewPendingQueue(8, speed)
	q.Push(queueRequest(1, 100, speed), 0)
	q.Push(queueRequest(2, 200, speed), 0)
	// Exactly at request 1's pickup deadline nothing expires — the
	// deadline instant is still dispatchable.
	if exp := q.ExpireBefore(100); len(exp) != 0 {
		t.Fatalf("expired %d at the exact deadline", len(exp))
	}
	// Strictly past it, request 1 (and only it) is evicted.
	exp := q.ExpireBefore(100.5)
	if len(exp) != 1 || exp[0].Req.ID != 1 {
		t.Fatalf("expired = %v", exp)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after expiry", q.Len())
	}
	// A push whose pickup deadline already passed is refused outright,
	// reporting expiry — not backpressure.
	if got := q.Push(queueRequest(3, 50, speed), 100.5); got != PushRejectedExpired {
		t.Fatalf("already-expired push = %v, want PushRejectedExpired", got)
	}
	if st := q.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d", st.Expired)
	}
}

func TestPendingQueueMarkServed(t *testing.T) {
	const speed = 10.0
	reg := obs.NewRegistry()
	q := NewPendingQueue(8, speed).InstrumentWith(reg)
	q.Push(queueRequest(1, 500, speed), 10)
	if q.MarkServed(1, 40) == nil {
		t.Fatal("MarkServed missed a parked request")
	}
	if q.MarkServed(1, 40) != nil {
		t.Fatal("MarkServed on an absent request reported true")
	}
	st := q.Stats()
	if st.Served != 1 || st.Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The wait histogram saw the 30 s queued-to-matched delay.
	h := reg.Histogram("mtshare_match_queue_wait_seconds").Snapshot()
	if h.Count != 1 || h.Sum != 30 {
		t.Fatalf("wait histogram = %+v", h)
	}
	if g := reg.Gauge("mtshare_match_queue_depth").Value(); g != 0 {
		t.Fatalf("depth gauge = %v", g)
	}
}

func TestDispatchBatchServesAndResolvesConflicts(t *testing.T) {
	env := newTestEnv(t, nil)
	now := 0.0
	// One taxi on the corridor both requests travel; the batch's first
	// commit takes it, the second conflicts and re-dispatches — sharing
	// the same taxi with a revised schedule.
	taxi := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.2, 0.2))
	env.e.AddTaxi(taxi, now)
	r1 := env.request(1, env.vertexNear(t, 0.2, 0.2), env.vertexNear(t, 0.8, 0.8), now, 1.5)
	r2 := env.request(2, env.vertexNear(t, 0.3, 0.3), env.vertexNear(t, 0.7, 0.7), now, 3.0)

	out := env.e.DispatchBatch(context.Background(), []*fleet.Request{r2, r1}, now, false)
	if len(out) != 2 {
		t.Fatalf("outcomes = %d", len(out))
	}
	// Commit order is (pickup deadline, ID): r1 has the tighter slack.
	if out[0].Req.ID != 1 || out[1].Req.ID != 2 {
		t.Fatalf("commit order = [%d %d]", out[0].Req.ID, out[1].Req.ID)
	}
	if !out[0].Served || out[0].Conflict {
		t.Fatalf("first outcome = %+v", out[0])
	}
	if !out[1].Served || !out[1].Conflict {
		t.Fatalf("second outcome: served=%v conflict=%v, want a resolved conflict", out[1].Served, out[1].Conflict)
	}
	if len(taxi.Schedule()) != 4 {
		t.Fatalf("schedule events = %d, want both requests aboard", len(taxi.Schedule()))
	}
	st := env.e.Stats()
	if st.BatchRequests != 2 || st.BatchConflicts != 1 {
		t.Fatalf("batch stats = %d requests, %d conflicts", st.BatchRequests, st.BatchConflicts)
	}
}

// scriptedBatchDispatcher drives runBatch with a scripted evaluation
// sequence: each DispatchContext call for a request pops its next taxi
// choice, and every commit succeeds. It pins the phase-2 protocol itself
// — conflict detection, re-dispatch, and conflict accounting — without
// the geometry of a real engine in the way.
type scriptedBatchDispatcher struct {
	choices map[fleet.RequestID][]*fleet.Taxi
	commits []Assignment
}

func (d *scriptedBatchDispatcher) DispatchContext(_ context.Context, req *fleet.Request, _ float64, _ bool) (Assignment, bool) {
	next := d.choices[req.ID]
	if len(next) == 0 {
		return Assignment{Req: req}, false
	}
	taxi := next[0]
	d.choices[req.ID] = next[1:]
	return Assignment{Req: req, Taxi: taxi}, true
}

func (d *scriptedBatchDispatcher) Commit(a Assignment, _ float64) error {
	d.commits = append(d.commits, a)
	return nil
}

func (d *scriptedBatchDispatcher) Config() Config { return DefaultConfig() }

// TestDispatchBatchChainedConflictAccounting pins phase 2's semantics for
// a chained conflict — three requests, two taxis: A commits taxi 1, B
// conflicts on taxi 1 and re-dispatches to taxi 2, then C conflicts on
// taxi 2 and its re-dispatch lands on the already-taken taxi 1. The
// chained landing still commits (the re-evaluation saw taxi 1's live
// post-commit schedule, so the insertion shares the ride — no reservation
// is lost), and it counts as a second conflict event for C: three events
// total, not the two that per-outcome counting would report.
func TestDispatchBatchChainedConflictAccounting(t *testing.T) {
	t1 := &fleet.Taxi{ID: 1, Capacity: 3}
	t2 := &fleet.Taxi{ID: 2, Capacity: 3}
	mkReq := func(id int64, pd float64) *fleet.Request {
		// DirectMeters is zero, so the pickup deadline equals Deadline.
		return &fleet.Request{ID: fleet.RequestID(id), Deadline: time.Duration(pd * float64(time.Second)), Passengers: 1}
	}
	rA, rB, rC := mkReq(1, 100), mkReq(2, 200), mkReq(3, 300)
	d := &scriptedBatchDispatcher{choices: map[fleet.RequestID][]*fleet.Taxi{
		rA.ID: {t1},
		rB.ID: {t1, t2}, // conflicts on taxi 1, re-dispatches to taxi 2
		rC.ID: {t2, t1}, // conflicts on taxi 2, chains onto taken taxi 1
	}}
	ins := newInstruments(obs.NewRegistry())
	out := runBatch(context.Background(), d, []*fleet.Request{rC, rA, rB}, 0, false, &ins)
	if len(out) != 3 || out[0].Req.ID != 1 || out[1].Req.ID != 2 || out[2].Req.ID != 3 {
		t.Fatalf("commit order = %v", out)
	}
	for i, o := range out {
		if !o.Served {
			t.Fatalf("outcome %d unserved: %+v", i, o)
		}
	}
	if out[0].Conflict || !out[1].Conflict || !out[2].Conflict {
		t.Fatalf("conflict flags = [%v %v %v], want [false true true]",
			out[0].Conflict, out[1].Conflict, out[2].Conflict)
	}
	if got := []int64{out[0].Assignment.Taxi.ID, out[1].Assignment.Taxi.ID, out[2].Assignment.Taxi.ID}; got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("winning taxis = %v, want [1 2 1]", got)
	}
	if len(d.commits) != 3 {
		t.Fatalf("commits = %d, want 3 (the chained landing must still commit)", len(d.commits))
	}
	if conflicts := ins.batchConflicts.Value(); conflicts != 3 {
		t.Fatalf("conflict events = %d, want 3 (B's conflict + C's conflict + C's chained landing)", conflicts)
	}
}

// TestPendingQueueStatsConservation drives the queue through a mixed
// push/serve/expire sequence and checks the lifecycle conservation law
// Enqueued == Depth + Served + Expired — every accepted push is still
// parked, was served, or expired; refused pushes touch only Rejected.
func TestPendingQueueStatsConservation(t *testing.T) {
	env := newTestEnv(t, nil)
	q := NewPendingQueue(16, env.e.Config().SpeedMps)
	check := func(when string) {
		st := q.Stats()
		if st.Enqueued != int64(st.Depth)+st.Served+st.Expired {
			t.Fatalf("%s: Enqueued %d != Depth %d + Served %d + Expired %d (stats %+v)",
				when, st.Enqueued, st.Depth, st.Served, st.Expired, st)
		}
	}
	reqs := seededWorkload(env, 10, 23)
	for i, r := range reqs {
		if !q.Push(r, 0).Accepted() {
			t.Fatalf("push %d refused below capacity", i)
		}
		check("push")
	}
	// Serve three of them.
	for _, r := range reqs[:3] {
		if q.MarkServed(r.ID, 1) == nil {
			t.Fatalf("MarkServed(%d) missed a parked request", r.ID)
		}
		check("serve")
	}
	// Expire a strict prefix of the remainder: sweep past the median
	// parked pickup deadline.
	snap := q.Snapshot()
	cut := snap[len(snap)/2].Req.PickupDeadline(env.e.Config().SpeedMps).Seconds()
	expired := q.ExpireBefore(cut + 0.001)
	if len(expired) == 0 || len(expired) == len(snap) {
		t.Fatalf("expiry swept %d of %d parked requests; need a strict subset", len(expired), len(snap))
	}
	check("expire")
	// An already-expired push is refused and must not disturb the law.
	if got := q.Push(expired[0].Req, cut+0.001); got != PushRejectedExpired {
		t.Fatalf("re-push of expired request = %v, want PushRejectedExpired", got)
	}
	check("expired re-push")
	st := q.Stats()
	if st.Served != 3 || st.Expired != int64(len(expired)) || st.Enqueued != int64(len(reqs)) {
		t.Fatalf("final stats %+v, want Enqueued=%d Served=3 Expired=%d", st, len(reqs), len(expired))
	}
}

func TestDispatchBatchDeterministicAcrossParallelism(t *testing.T) {
	type result struct {
		id     fleet.RequestID
		taxi   int64
		served bool
		detour float64
	}
	run := func(par int) []result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
		env := newTestEnv(t, nil)
		now := 0.0
		for i := int64(1); i <= 6; i++ {
			f := 0.2 + 0.1*float64(i)
			env.e.AddTaxi(fleet.NewTaxi(env.g, i, 3, env.vertexNear(t, f, f)), now)
		}
		var reqs []*fleet.Request
		for i := int64(1); i <= 8; i++ {
			f := 0.15 + 0.08*float64(i)
			reqs = append(reqs, env.request(i, env.vertexNear(t, f, 0.5), env.vertexNear(t, 0.9, 0.5), now, 1.4+0.05*float64(i)))
		}
		out := env.e.DispatchBatch(context.Background(), reqs, now, false)
		res := make([]result, len(out))
		for i, o := range out {
			res[i] = result{id: o.Req.ID, served: o.Served}
			if o.Served {
				res[i].taxi = o.Assignment.Taxi.ID
				res[i].detour = o.Assignment.DetourMeters
			}
		}
		return res
	}
	seq := run(1)
	for _, par := range []int{2, 4, 8} {
		if got := run(par); len(got) != len(seq) || !equalResults(got, seq) {
			t.Fatalf("GOMAXPROCS %d diverged:\n got %+v\nwant %+v", par, got, seq)
		}
	}
}

func equalResults[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
