package match

import (
	"sort"
	"testing"
	"time"

	"repro/internal/fleet"
)

// modelItem mirrors one parked request in the naive reference model.
type modelItem struct {
	id      fleet.RequestID
	pd      float64
	retries int
}

// modelQueue is the trivially-correct reference implementation the fuzzer
// diffs PendingQueue against: a plain slice re-sorted on demand, with the
// same lifecycle counters.
type modelQueue struct {
	capacity int
	items    []modelItem
	stats    QueueStats
}

func (m *modelQueue) find(id fleet.RequestID) int {
	for i := range m.items {
		if m.items[i].id == id {
			return i
		}
	}
	return -1
}

func (m *modelQueue) sorted() []modelItem {
	out := append([]modelItem(nil), m.items...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].pd != out[j].pd {
			return out[i].pd < out[j].pd
		}
		return out[i].id < out[j].id
	})
	return out
}

func (m *modelQueue) push(id fleet.RequestID, pd, now float64) PushResult {
	if m.find(id) >= 0 {
		return PushAccepted
	}
	if pd < now {
		m.stats.Rejected++
		return PushRejectedExpired
	}
	if len(m.items) >= m.capacity {
		m.stats.Rejected++
		return PushRejectedFull
	}
	m.items = append(m.items, modelItem{id: id, pd: pd})
	m.stats.Enqueued++
	return PushAccepted
}

func (m *modelQueue) expireBefore(now float64) []modelItem {
	var out, keep []modelItem
	for _, it := range m.sorted() {
		if it.pd < now {
			out = append(out, it)
		}
	}
	for _, it := range m.items {
		if it.pd >= now {
			keep = append(keep, it)
		}
	}
	m.items = keep
	m.stats.Expired += int64(len(out))
	return out
}

func (m *modelQueue) nextBatch() []modelItem {
	out := m.sorted()
	for i := range m.items {
		m.items[i].retries++
	}
	for i := range out {
		out[i].retries++
	}
	m.stats.Retries += int64(len(out))
	return out
}

func (m *modelQueue) markServed(id fleet.RequestID) bool {
	i := m.find(id)
	if i < 0 {
		return false
	}
	m.items = append(m.items[:i], m.items[i+1:]...)
	m.stats.Served++
	return true
}

// fuzzReq builds a request whose pickup deadline is exactly pd seconds:
// DirectMeters is zero, so PickupDeadline == Deadline. Integral pd values
// survive the Duration round-trip exactly.
func fuzzReq(id fleet.RequestID, pd float64) *fleet.Request {
	return &fleet.Request{
		ID:         id,
		Origin:     0,
		Dest:       1,
		Deadline:   time.Duration(pd * float64(time.Second)),
		Passengers: 1,
	}
}

// FuzzPendingQueue drives PendingQueue through a byte-decoded op sequence
// (push / advance-clock / expire / batch / serve) and diffs every return
// value, the (deadline, ID) snapshot order, and the lifecycle counters
// against the naive model, including the conservation law
// Enqueued == Depth + Served + Expired.
func FuzzPendingQueue(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{0x10, 0x00, 0x05, 0x06, 0x0c, 0x01, 0x21, 0x02, 0x03, 0x04, 0x18})
	// Same-deadline pushes, then expiry sweeping half of them.
	f.Add([]byte{0x03, 0x00, 0x08, 0x06, 0x08, 0x0c, 0x08, 0x01, 0x3f, 0x02, 0x03})
	// Duplicate IDs and serve-misses.
	f.Add([]byte{0x02, 0x00, 0x04, 0x00, 0x04, 0x04, 0x09, 0x04, 0x05, 0x03})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%8)
		q := NewPendingQueue(capacity, 10)
		m := &modelQueue{capacity: capacity}
		now := 0.0
		next := func(i *int) (byte, bool) {
			if *i >= len(data) {
				return 0, false
			}
			b := data[*i]
			*i++
			return b, true
		}
		for i := 1; i < len(data); {
			op, _ := next(&i)
			switch op % 5 {
			case 0: // push
				idb, ok := next(&i)
				if !ok {
					return
				}
				pdb, _ := next(&i)
				id := fleet.RequestID(idb % 16)
				pd := now + float64(pdb%8) - 2 // sometimes already expired
				got := q.Push(fuzzReq(id, pd), now)
				want := m.push(id, pd, now)
				if got != want {
					t.Fatalf("Push(id=%d pd=%g now=%g) = %v, model %v", id, pd, now, got, want)
				}
			case 1: // advance the clock (monotonically)
				d, _ := next(&i)
				now += float64(d % 16)
			case 2: // expire
				got := q.ExpireBefore(now)
				want := m.expireBefore(now)
				if len(got) != len(want) {
					t.Fatalf("ExpireBefore(%g) returned %d items, model %d", now, len(got), len(want))
				}
				for j := range got {
					if got[j].Req.ID != want[j].id {
						t.Fatalf("ExpireBefore order at %d: got id %d, model %d", j, got[j].Req.ID, want[j].id)
					}
				}
			case 3: // batch
				got := q.NextBatch()
				want := m.nextBatch()
				if len(got) != len(want) {
					t.Fatalf("NextBatch returned %d items, model %d", len(got), len(want))
				}
				for j := range got {
					if got[j].Req.ID != want[j].id || got[j].Retries != want[j].retries {
						t.Fatalf("NextBatch at %d: got (id=%d retries=%d), model (id=%d retries=%d)",
							j, got[j].Req.ID, got[j].Retries, want[j].id, want[j].retries)
					}
				}
			case 4: // serve
				idb, ok := next(&i)
				if !ok {
					return
				}
				id := fleet.RequestID(idb % 16)
				got := q.MarkServed(id, now) != nil
				want := m.markServed(id)
				if got != want {
					t.Fatalf("MarkServed(%d) = %v, model %v", id, got, want)
				}
			}
			// Invariants after every op.
			if q.Len() != len(m.items) {
				t.Fatalf("Len = %d, model %d", q.Len(), len(m.items))
			}
			snap := q.Snapshot()
			want := m.sorted()
			for j := range snap {
				if snap[j].Req.ID != want[j].id {
					t.Fatalf("Snapshot order at %d: got id %d, model id %d", j, snap[j].Req.ID, want[j].id)
				}
				if j > 0 {
					prev, cur := snap[j-1], snap[j]
					if prev.pickupDeadline > cur.pickupDeadline ||
						(prev.pickupDeadline == cur.pickupDeadline && prev.Req.ID >= cur.Req.ID) {
						t.Fatalf("Snapshot not in (deadline, ID) order at %d", j)
					}
				}
			}
			st := q.Stats()
			ms := m.stats
			ms.Depth = len(m.items)
			ms.Capacity = capacity
			if st != ms {
				t.Fatalf("Stats = %+v, model %+v", st, ms)
			}
			if st.Enqueued != int64(st.Depth)+st.Served+st.Expired {
				t.Fatalf("conservation broken: enqueued %d != depth %d + served %d + expired %d",
					st.Enqueued, st.Depth, st.Served, st.Expired)
			}
		}
	})
}
