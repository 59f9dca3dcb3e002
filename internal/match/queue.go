package match

import (
	"container/heap"
	"context"
	"sort"
	"sync"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// PushResult is the outcome of PendingQueue.Push: accepted, or refused
// with the reason — a full queue (backpressure the caller can surface as a
// retryable reject) versus a pickup deadline that had already passed at
// push time (a terminal miss no amount of queueing can save).
type PushResult int

const (
	// PushAccepted reports the request is parked (including the no-op
	// re-push of an already-parked request).
	PushAccepted PushResult = iota
	// PushRejectedFull reports the queue was at capacity — backpressure.
	PushRejectedFull
	// PushRejectedExpired reports the request's pickup deadline had
	// already strictly passed, so parking it would only ever expire it.
	PushRejectedExpired
)

// Accepted reports whether the push parked the request.
func (r PushResult) Accepted() bool { return r == PushAccepted }

// String names the result for logs and tests.
func (r PushResult) String() string {
	switch r {
	case PushAccepted:
		return "accepted"
	case PushRejectedFull:
		return "rejected_full"
	case PushRejectedExpired:
		return "rejected_expired"
	default:
		return "unknown"
	}
}

// PendingItem is one parked request in a PendingQueue: a request that got
// no feasible taxi at submission and is waiting for fleet state to change.
type PendingItem struct {
	Req *fleet.Request
	// EnqueuedAt is the simulation time (seconds) the request was parked.
	EnqueuedAt float64
	// Retries counts the batch re-dispatch rounds this request has been
	// through so far.
	Retries int

	// pickupDeadline (absolute seconds) orders the heap and drives expiry;
	// it is fixed at push time from the engine's speed.
	pickupDeadline float64
	index          int
}

// QueueStats is a point-in-time summary of a PendingQueue's lifecycle
// counters (see DESIGN.md, "Pending-request queue").
type QueueStats struct {
	// Depth is the number of requests currently parked; Capacity the bound.
	Depth    int
	Capacity int
	// Enqueued counts accepted pushes; Rejected pushes refused — whether
	// because the queue was full (backpressure) or because the request's
	// pickup deadline had already passed (Push's PushResult carries the
	// distinction).
	Enqueued int64
	Rejected int64
	// Retries counts request re-dispatch attempts across batch rounds.
	Retries int64
	// Served counts queued requests that a retry round matched; Expired
	// those evicted because their pickup deadline passed while queued.
	Served  int64
	Expired int64
}

// PendingQueue is the deadline-aware pending-request pool of the batched
// re-dispatch subsystem: a capacity-bounded min-heap ordered by (pickup
// deadline, request ID). Requests stay in the pool across retry rounds
// until they are served (MarkServed) or their pickup deadline passes
// strictly (ExpireBefore — the deadline itself is still dispatchable,
// matching the engine's inclusive-deadline convention). Its lifecycle
// counts live only in its instruments. It is safe for concurrent use.
type PendingQueue struct {
	speedMps float64
	capacity int

	mu    sync.Mutex
	items pendingHeap
	byID  map[fleet.RequestID]*PendingItem

	depthGauge *obs.Gauge
	enqueued   *obs.Counter
	rejected   *obs.Counter
	retries    *obs.Counter
	served     *obs.Counter
	expired    *obs.Counter
	waitSecs   *obs.Histogram
}

// NewPendingQueue creates a queue bounded to capacity requests. speedMps
// converts delivery deadlines to pickup deadlines (it must match the
// dispatching engine's speed so queue expiry agrees with dispatch expiry).
func NewPendingQueue(capacity int, speedMps float64) *PendingQueue {
	q := &PendingQueue{
		speedMps: speedMps,
		capacity: capacity,
		byID:     make(map[fleet.RequestID]*PendingItem),
	}
	return q.InstrumentWith(obs.NewRegistry())
}

// InstrumentWith moves the queue's instruments into reg under
// mtshare_match_queue_* (depth gauge, enqueued/rejected/retries/served/
// expired counters, and the queued-to-matched wait histogram in simulation
// seconds) and returns the queue. Until then they live in a private
// registry. Call it once, before the queue is used: Stats reads these
// counters, so a queue sharing reg with another reports their sum.
func (q *PendingQueue) InstrumentWith(reg *obs.Registry) *PendingQueue {
	q.depthGauge = reg.Gauge("mtshare_match_queue_depth")
	q.enqueued = reg.Counter("mtshare_match_queue_enqueued_total")
	q.rejected = reg.Counter("mtshare_match_queue_rejected_total")
	q.retries = reg.Counter("mtshare_match_queue_retries_total")
	q.served = reg.Counter("mtshare_match_queue_served_total")
	q.expired = reg.Counter("mtshare_match_queue_expired_total")
	q.waitSecs = reg.Histogram("mtshare_match_queue_wait_seconds")
	return q
}

// Len returns the number of parked requests.
func (q *PendingQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

// Push parks a request. A refused push — the caller surfaces it as a
// terminal reject — reports why: PushRejectedExpired when the request's
// pickup deadline has already strictly passed, PushRejectedFull when the
// queue is at capacity (expiry wins when both hold — a doomed request is
// not backpressure). Pushing a request that is already parked is a no-op
// reporting PushAccepted.
func (q *PendingQueue) Push(req *fleet.Request, nowSeconds float64) PushResult {
	pd := req.PickupDeadline(q.speedMps).Seconds()
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.byID[req.ID]; ok {
		return PushAccepted
	}
	if pd < nowSeconds || q.items.Len() >= q.capacity {
		q.rejected.Inc()
		if pd < nowSeconds {
			return PushRejectedExpired
		}
		return PushRejectedFull
	}
	it := &PendingItem{Req: req, EnqueuedAt: nowSeconds, pickupDeadline: pd}
	heap.Push(&q.items, it)
	q.byID[req.ID] = it
	q.enqueued.Inc()
	q.setDepthLocked()
	return PushAccepted
}

// ExpireBefore evicts and returns every parked request whose pickup
// deadline is strictly before nowSeconds, in (pickup deadline, request ID)
// order. A request exactly at its deadline stays queued — it is still
// dispatchable this instant.
func (q *PendingQueue) ExpireBefore(nowSeconds float64) []*PendingItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*PendingItem
	for q.items.Len() > 0 && q.items[0].pickupDeadline < nowSeconds {
		it := heap.Pop(&q.items).(*PendingItem)
		delete(q.byID, it.Req.ID)
		out = append(out, it)
	}
	if len(out) > 0 {
		q.expired.Add(int64(len(out)))
		q.setDepthLocked()
	}
	return out
}

// NextBatch returns the parked requests in (pickup deadline, request ID)
// order — the deterministic evaluation and commit order of DispatchBatch —
// and counts one retry against each. Items remain parked; the caller
// reports matches back via MarkServed.
func (q *PendingQueue) NextBatch() []*PendingItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.sortedLocked()
	for _, it := range out {
		it.Retries++
	}
	q.retries.Add(int64(len(out)))
	return out
}

// Snapshot returns the parked requests in (pickup deadline, request ID)
// order without mutating any lifecycle state (for stats endpoints).
func (q *PendingQueue) Snapshot() []*PendingItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sortedLocked()
}

func (q *PendingQueue) sortedLocked() []*PendingItem {
	out := make([]*PendingItem, len(q.items))
	copy(out, q.items)
	sort.Slice(out, func(i, j int) bool {
		if out[i].pickupDeadline != out[j].pickupDeadline {
			return out[i].pickupDeadline < out[j].pickupDeadline
		}
		return out[i].Req.ID < out[j].Req.ID
	})
	return out
}

// MarkServed removes a matched request from the pool, recording its
// queued-to-matched wait, and returns its item. It returns nil when the
// request is not parked.
func (q *PendingQueue) MarkServed(id fleet.RequestID, nowSeconds float64) *PendingItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	it, ok := q.byID[id]
	if !ok {
		return nil
	}
	heap.Remove(&q.items, it.index)
	delete(q.byID, id)
	q.served.Inc()
	q.waitSecs.Observe(nowSeconds - it.EnqueuedAt)
	q.setDepthLocked()
	return it
}

// Stats returns a snapshot of the queue's lifecycle counters.
func (q *PendingQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Depth:    q.items.Len(),
		Capacity: q.capacity,
		Enqueued: q.enqueued.Value(),
		Rejected: q.rejected.Value(),
		Retries:  q.retries.Value(),
		Served:   q.served.Value(),
		Expired:  q.expired.Value(),
	}
}

func (q *PendingQueue) setDepthLocked() { q.depthGauge.Set(float64(q.items.Len())) }

// pendingHeap is a min-heap over (pickup deadline, request ID).
type pendingHeap []*PendingItem

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].pickupDeadline != h[j].pickupDeadline {
		return h[i].pickupDeadline < h[j].pickupDeadline
	}
	return h[i].Req.ID < h[j].Req.ID
}
func (h pendingHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *pendingHeap) Push(x any) {
	it := x.(*PendingItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// BatchOutcome is one request's result from DispatchBatch.
type BatchOutcome struct {
	Req        *fleet.Request
	Assignment Assignment
	// Served reports whether the request was matched and committed.
	Served bool
	// Conflict reports that the request's first evaluation picked a taxi
	// an earlier commit of the same batch had already taken, forcing a
	// re-dispatch against the updated fleet state.
	Conflict bool
}

// DispatchBatch re-dispatches a set of pending requests as one round. The
// requests are evaluated through the ordinary (internally parallel)
// dispatch pipeline against the batch-start fleet state, then committed in
// (pickup deadline, request ID) order. When two requests' evaluations pick
// the same taxi, the later one re-dispatches against the updated fleet
// state — the taxi may still win with a revised schedule, or a different
// taxi takes over. The sequential evaluate-then-commit structure makes the
// whole round deterministic at every GOMAXPROCS.
//
// With Config.BatchAssign the round instead builds the full (request,
// taxi) cost graph and solves a global min-cost assignment before
// committing (see runBatchAssign); greedy remains the default and the
// fallback for degenerate graphs.
//
// Outcomes are returned in commit order. Requests that still found no taxi
// are simply not served this round; eviction of expired requests is the
// queue's job (ExpireBefore), not DispatchBatch's.
func (e *Engine) DispatchBatch(ctx context.Context, reqs []*fleet.Request, nowSeconds float64, probabilistic bool) []BatchOutcome {
	if e.cfg.BatchAssign {
		return e.runBatchAssign(ctx, reqs, nowSeconds, probabilistic)
	}
	return runBatch(ctx, e, reqs, nowSeconds, probabilistic, &e.ins)
}

// batchDispatcher is what runBatch needs from a dispatcher: the Engine,
// or a test's scripted stand-in pinning the protocol itself.
type batchDispatcher interface {
	DispatchContext(ctx context.Context, req *fleet.Request, nowSeconds float64, probabilistic bool) (Assignment, bool)
	Commit(a Assignment, nowSeconds float64) error
	Config() Config
}

// runBatch is the two-phase batch protocol: phase 1 evaluates every
// request against the same fleet state, phase 2 reserves taxis in (pickup
// deadline, request ID) order — the `taken` set — and commits,
// re-dispatching the later request of any conflict. Both phases are
// deterministic at every GOMAXPROCS. ins receives the batch
// request and conflict counts.
func runBatch(ctx context.Context, d batchDispatcher, reqs []*fleet.Request, nowSeconds float64, probabilistic bool, ins *instruments) []BatchOutcome {
	order := batchOrder(d, reqs)
	out := make([]BatchOutcome, len(order))
	// Phase 1: evaluate everything against the same fleet state (no
	// commits interleave), each evaluation fanning across the worker pool.
	for i, r := range order {
		a, ok := d.DispatchContext(ctx, r, nowSeconds, probabilistic)
		out[i] = BatchOutcome{Req: r, Assignment: a, Served: ok}
		ins.batchRequests.Inc()
	}
	commitBatch(ctx, d, out, nowSeconds, probabilistic, ins)
	return out
}

// batchOrder sorts a batch into its deterministic (pickup deadline,
// request ID) evaluation-and-commit order.
func batchOrder(d batchDispatcher, reqs []*fleet.Request) []*fleet.Request {
	order := make([]*fleet.Request, len(reqs))
	copy(order, reqs)
	speed := d.Config().SpeedMps
	sort.Slice(order, func(i, j int) bool {
		di, dj := order[i].PickupDeadline(speed), order[j].PickupDeadline(speed)
		if di != dj {
			return di < dj
		}
		return order[i].ID < order[j].ID
	})
	return order
}

// commitBatch is phase 2 of the batch protocol: commit served outcomes in
// order, re-dispatching on conflicts. A global-assignment winner reaches
// it without basic legs; Commit routes them at installation.
func commitBatch(ctx context.Context, d batchDispatcher, out []BatchOutcome, nowSeconds float64, probabilistic bool, ins *instruments) {
	taken := make(map[int64]bool)
	for i := range out {
		o := &out[i]
		if !o.Served {
			continue
		}
		if taken[o.Assignment.Taxi.ID] {
			o.Conflict = true
			ins.batchConflicts.Inc()
			contested := o.Assignment.Taxi.ID
			if !redispatch(ctx, d, o, nowSeconds, probabilistic) {
				continue
			}
			// Re-winning the contested taxi with a revised shared schedule
			// is this conflict's designed resolution, not a new one. But
			// the re-dispatch may instead land on a *different* taxi an
			// earlier commit took — a chained conflict, and one more
			// contention event to count. Either way the commit below is
			// sound: the re-evaluation saw the taxi's live post-commit
			// schedule, so the winning insertion shares the ride on it;
			// re-dispatching yet again would loop without progress, since
			// nothing has changed since the evaluation that picked it.
			if o.Assignment.Taxi.ID != contested && taken[o.Assignment.Taxi.ID] {
				ins.batchConflicts.Inc()
			}
		}
		if d.Commit(o.Assignment, nowSeconds) != nil {
			// The evaluation went stale under a concurrent commit outside
			// the batch; one re-dispatch against live state settles it.
			if !redispatch(ctx, d, o, nowSeconds, probabilistic) ||
				d.Commit(o.Assignment, nowSeconds) != nil {
				o.Served = false
				continue
			}
		}
		taken[o.Assignment.Taxi.ID] = true
	}
}

// redispatch re-evaluates a batch outcome's request against the current
// fleet state, replacing its assignment.
func redispatch(ctx context.Context, d batchDispatcher, o *BatchOutcome, nowSeconds float64, probabilistic bool) bool {
	a, ok := d.DispatchContext(ctx, o.Req, nowSeconds, probabilistic)
	o.Assignment, o.Served = a, ok
	return ok
}
