// Durable state for the dispatch layer: what only the engine holds and
// cannot recompute from the replay header — each taxi's partition-index
// rows (arrival times are ULP-sensitive and carried verbatim), the
// mobility clusters (endpoint sums are accumulation-order-dependent and
// carried verbatim) and the cruise sampler's stream position — and the
// pending queue's capture. The runtime (internal/service) declares the
// snapshot schema and assembles it from these parts. Derived state (route
// caches, leg costs, the partition each taxi was indexed in) is rebuilt:
// each is a pure function of the restored fields at an event boundary.
//
// Restore always targets a freshly constructed engine and queue — the
// WAL records every state-changing event, so recovery builds a virgin
// world from the header and lays the snapshot on top. Deterministic
// counters are restored by the host through the registry.
package match

import (
	"container/heap"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/mobcluster"
)

// RequestResolver maps request IDs to the host's restored Request
// instances, so every schedule, queue, and membership reference aliases
// the same object.
type RequestResolver func(fleet.RequestID) (*fleet.Request, bool)

// IndexRows returns a copy of taxi id's partition-index rows, ascending
// by partition, for snapshot capture.
func (e *Engine) IndexRows(id int64) []index.Row { return e.pindex.RowsOf(id) }

// RestoreTaxi registers a taxi rebuilt from a snapshot with its captured
// index rows. Unlike AddTaxi it neither re-indexes the taxi nor touches
// the clusters: both are restored verbatim. The partition the taxi was
// indexed in is its current one: at every event boundary it is (AddTaxi,
// commits and border crossings all re-index), so it is recomputed rather
// than serialized. A registered ID is refused.
func (e *Engine) RestoreTaxi(t *fleet.Taxi, rows []index.Row) error {
	e.mu.Lock()
	_, dup := e.taxis[t.ID]
	if !dup {
		e.taxis[t.ID] = t
	}
	e.mu.Unlock()
	if dup {
		return fmt.Errorf("match: taxi %d is already registered", t.ID)
	}
	e.pindex.RestoreRows(t.ID, e.pt.PartitionOf(t.At()), rows)
	return nil
}

// Mobility captures the cluster set and the cruise sampler's position.
func (e *Engine) Mobility() (clusters mobcluster.State, cruiseDraws int64) {
	return e.clusters.CaptureState(), e.cruise.drawCount()
}

// RestoreMobility replaces the cluster set and fast-forwards the cruise
// sampler to a captured position.
func (e *Engine) RestoreMobility(clusters mobcluster.State, cruiseDraws int64) error {
	if err := e.clusters.RestoreState(clusters); err != nil {
		return err
	}
	return e.cruise.fastForward(cruiseDraws)
}

// QueueItemState is one parked request. The heap key (pickup deadline)
// is recomputed from the request at restore time, exactly as Push
// computed it.
type QueueItemState struct {
	Req        int64   `json:"req"`
	EnqueuedAt float64 `json:"enqueued_at"`
	Retries    int     `json:"retries,omitempty"`
}

// PoolState is a pending-queue snapshot: the parked items and the
// queue's capacity. The lifecycle counters are mtshare_match_queue_*
// series, captured and restored with the host's other counters.
type PoolState struct {
	Items    []QueueItemState `json:"items,omitempty"`
	Capacity int              `json:"capacity"`
}

// CaptureDurable snapshots the queue: items in (pickup deadline, request
// ID) order plus its capacity.
func (q *PendingQueue) CaptureDurable() PoolState {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := PoolState{Capacity: q.capacity}
	for _, it := range q.sortedLocked() {
		st.Items = append(st.Items, QueueItemState{
			Req:        int64(it.Req.ID),
			EnqueuedAt: it.EnqueuedAt,
			Retries:    it.Retries,
		})
	}
	return st
}

// RestoreDurable loads a snapshot into a freshly constructed queue. The
// mtshare_match_queue_* counters are deterministic series restored by
// the host through the registry (RestoreCounters); only the depth gauge
// is refreshed here.
func (q *PendingQueue) RestoreDurable(st PoolState, resolve RequestResolver) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.Len() > 0 {
		return fmt.Errorf("match: RestoreDurable on a non-empty queue")
	}
	if st.Capacity != q.capacity {
		return fmt.Errorf("match: queue snapshot capacity %d, configured %d", st.Capacity, q.capacity)
	}
	for _, is := range st.Items {
		req, ok := resolve(fleet.RequestID(is.Req))
		if !ok {
			return fmt.Errorf("match: queued request %d unknown", is.Req)
		}
		it := &PendingItem{
			Req:            req,
			EnqueuedAt:     is.EnqueuedAt,
			Retries:        is.Retries,
			pickupDeadline: req.PickupDeadline(q.speedMps).Seconds(),
		}
		heap.Push(&q.items, it)
		q.byID[req.ID] = it
	}
	q.setDepthLocked()
	return nil
}
