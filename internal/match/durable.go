// Durable state for the dispatch layer: deterministic capture and
// restore of everything an Engine owns that cannot be recomputed from
// the replay header — the fleet (positions, schedules, seat accounting),
// the partition-index rows (arrival times are ULP-sensitive and carried
// verbatim), the mobility clusters (endpoint sums are
// accumulation-order-dependent and carried verbatim), the cruise
// sampler's stream position, and the pending queue. Derived state
// (route caches, leg costs, Scheme's last-indexed partitions) is rebuilt:
// each is a pure function of the restored fields at an event boundary.
//
// Restore always targets a freshly constructed, empty engine — the
// WAL records every state-changing event, so recovery builds a virgin
// world from the header and lays the snapshot on top. Deterministic
// counters are not part of DurableState; the host restores them into the
// registry from the snapshot's counter table.
package match

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/mobcluster"
)

// RequestResolver maps request IDs to the host's restored Request
// instances, so every schedule, queue, and membership reference aliases
// the same object.
type RequestResolver func(fleet.RequestID) (*fleet.Request, bool)

// TaxiIndexRows is one taxi's partition-index rows.
type TaxiIndexRows struct {
	Taxi int64       `json:"taxi"`
	Rows []index.Row `json:"rows,omitempty"`
}

// DurableState is an engine snapshot: taxis sorted by ID, their index
// rows, the cluster set, and the cruise sampler position.
type DurableState struct {
	Taxis       []fleet.TaxiState `json:"taxis,omitempty"`
	Index       []TaxiIndexRows   `json:"index,omitempty"`
	Clusters    mobcluster.State  `json:"clusters"`
	CruiseDraws int64             `json:"cruise_draws,omitempty"`
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
// queue's lifecycle counters. Stats always holds exactly one entry; the
// list form is the snapshot schema's, kept so existing snapshots load.
type PoolState struct {
	Items []QueueItemState `json:"items,omitempty"`
	Stats []QueueStats     `json:"stats"`
}

// CaptureDurable snapshots the engine's durable state. The caller must
// hold the event boundary: no concurrent dispatch, commit, or advance.
func (e *Engine) CaptureDurable() *DurableState {
	st := &DurableState{
		Clusters:    e.clusters.CaptureState(),
		CruiseDraws: e.cruise.drawCount(),
	}
	e.mu.RLock()
	taxis := make([]*fleet.Taxi, 0, len(e.taxis))
	for _, t := range e.taxis {
		taxis = append(taxis, t)
	}
	e.mu.RUnlock()
	sort.Slice(taxis, func(i, j int) bool { return taxis[i].ID < taxis[j].ID })
	for _, t := range taxis {
		st.Taxis = append(st.Taxis, t.DurableState())
		st.Index = append(st.Index, TaxiIndexRows{Taxi: t.ID, Rows: e.pindex.RowsOf(t.ID)})
	}
	return st
}

// RestoreDurable loads a snapshot into a freshly constructed engine and
// returns the restored taxis sorted by ID. It must not be used on an
// engine that has already registered taxis: restore does not clear, it
// lays state onto zero state.
func (e *Engine) RestoreDurable(st *DurableState, resolve RequestResolver) ([]*fleet.Taxi, error) {
	if st == nil {
		return nil, nil
	}
	if e.NumTaxis() != 0 {
		return nil, fmt.Errorf("match: RestoreDurable on a non-empty engine")
	}
	rows := indexRowsByTaxi(st.Index)
	out := make([]*fleet.Taxi, 0, len(st.Taxis))
	for _, ts := range st.Taxis {
		t, err := fleet.RestoreTaxi(e.g, ts, resolve)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.taxis[t.ID] = t
		e.mu.Unlock()
		e.pindex.RestoreRows(t.ID, rows[t.ID])
		out = append(out, t)
	}
	if err := e.clusters.RestoreState(st.Clusters); err != nil {
		return nil, err
	}
	if err := e.cruise.fastForward(st.CruiseDraws); err != nil {
		return nil, err
	}
	return out, nil
}

func indexRowsByTaxi(idx []TaxiIndexRows) map[int64][]index.Row {
	m := make(map[int64][]index.Row, len(idx))
	for _, r := range idx {
		m[r.Taxi] = r.Rows
	}
	return m
}

// RestoreIndexed re-seeds the scheme's last-indexed-partition map after
// a restore. At every event boundary the map holds each taxi's current
// partition (AddTaxi, commits, and border crossings all refresh it), so
// it is recomputed rather than serialized.
func (s *Scheme) RestoreIndexed(taxis []*fleet.Taxi) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range taxis {
		s.lastIndexed[t.ID] = s.Partitioning().PartitionOf(t.At())
	}
}

// CaptureDurable snapshots the queue: items in (pickup deadline, request
// ID) order plus the lifecycle counters verbatim.
func (q *PendingQueue) CaptureDurable() PoolState {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := PoolState{Stats: []QueueStats{q.stats}}
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
// the host through the registry; only the depth gauge is refreshed here.
func (q *PendingQueue) RestoreDurable(st PoolState, resolve RequestResolver) error {
	if len(st.Stats) != 1 {
		return fmt.Errorf("match: queue snapshot has %d stats entries, want 1", len(st.Stats))
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.Len() > 0 || q.stats.Enqueued > 0 {
		return fmt.Errorf("match: RestoreDurable on a non-empty queue")
	}
	if st.Stats[0].Capacity != q.capacity {
		return fmt.Errorf("match: queue snapshot capacity %d, configured %d", st.Stats[0].Capacity, q.capacity)
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
	stats := st.Stats[0]
	stats.Depth = 0 // Stats() derives depth live
	q.stats = stats
	q.setDepthLocked()
	return nil
}
