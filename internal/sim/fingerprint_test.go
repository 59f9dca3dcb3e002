package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/service"
)

// fingerprint hashes a run's outcomes: every ledger entry in request
// order — the request bar its ID value (a label, not an outcome), then its
// lifecycle with the served-offline and served-from-queue flags and the
// regular fare of a settled ride derived — then the Metrics counts and
// the fleet's odometer totals. Floats hash by their bits.
func fingerprint(eng *Engine, m *Metrics) uint64 {
	h := fnv.New64a()
	for _, st := range m.Records {
		r := st.Req
		put(h, int64(r.ReleaseAt), int64(r.Origin), int64(r.Dest), int64(r.Deadline), r.DirectMeters,
			int64(r.Passengers), r.Offline, r.OriginPt.Lat, r.OriginPt.Lng, r.DestPt.Lat, r.DestPt.Lng)
		var regular float64
		if eng.rt.Settled(st) {
			regular = eng.rt.Pay.Tariff.Fare(r.DirectMeters)
		}
		put(h, st.Served, st.Served && r.Offline, st.Delivered, st.Expired, st.Taxi,
			st.Queued, st.Queued && st.Served, int64(st.QueueRetries), st.QueueWait,
			st.AssignAt, st.PickupAt, st.DropoffAt, int64(st.Candidates),
			st.PickupOdo, st.DropoffOdo, regular, st.Fare)
	}
	for _, n := range []int{m.Requests, m.OnlineRequests, m.OfflineRequests, m.Served, m.ServedOnline,
		m.ServedOffline, m.Delivered, m.Queued, m.ServedFromQueue, m.ExpiredInQueue} {
		put(h, int64(n))
	}
	put(h, m.TaxiMeters, m.PassengerMeters)
	return h.Sum64()
}

func put(h hash.Hash64, vs ...any) {
	var b [8]byte
	for _, v := range vs {
		switch v := v.(type) {
		case bool:
			b[0] = 0
			if v {
				b[0] = 1
			}
			h.Write(b[:1])
		case int64:
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		case float64:
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		default:
			panic("fingerprint: unhashed type")
		}
	}
}

// simCell is one run of the engine: a scheme over a workload, with the
// fingerprint its outcomes must hash to.
type simCell struct {
	name   string
	scheme func() dispatch.Scheme
	reqs   []*fleet.Request
	taxis  int
	params func(*Params)
	want   uint64
}

// fingerprintCells is one cell per path through the engine: the pending
// queue's batch retry round, the per-request retry fallback of a scheme
// without a batch path, roadside encounters with and without the
// fallback dispatch, probabilistic idle cruising, and a shift changeover.
func fingerprintCells(t *testing.T, w *world) []simCell {
	prep := func(hour time.Duration, rho, offlineFrac float64) []*fleet.Request {
		trips := w.ds.Between(hour, hour+time.Hour)
		return PrepareRequests(w.rt, w.spx, trips, PrepareOptions{
			Rho: rho, OfflineFrac: offlineFrac, Seed: 7,
		})
	}
	return []simCell{
		{
			name:   "mtshare-queue",
			scheme: func() dispatch.Scheme { return w.mtShare(t, false) },
			reqs:   w.peakRequests(t, 0),
			taxis:  8,
			params: func(p *Params) { p.QueueDepth, p.RetryEveryTicks = 24, 2 },
			want:   0x3ad3402358b57b0c,
		},
		{
			name:   "mtsharepro-nonpeak-offline",
			scheme: func() dispatch.Scheme { return w.mtShare(t, true) },
			reqs:   prep(13*time.Hour, 1.3, 0.35),
			taxis:  12,
			want:   0x3fedca02f2a22211,
		},
		{
			name:   "pgreedydp-queue",
			scheme: func() dispatch.Scheme { return baseline.NewPGreedyDP(w.router(), 2500) },
			reqs:   prep(8*time.Hour, 3, 0),
			taxis:  6,
			params: func(p *Params) { p.QueueDepth, p.RetryEveryTicks = 24, 1 },
			want:   0xbe5ce7ccfea680cb,
		},
		{
			name:   "nosharing-offline",
			scheme: func() dispatch.Scheme { return baseline.NewNoSharing(w.router(), 2500) },
			reqs:   w.peakRequests(t, 0.35),
			taxis:  20,
			want:   0xbe885e897f26d1cd,
		},
		{
			name:   "mtshare-shift",
			scheme: func() dispatch.Scheme { return w.mtShare(t, false) },
			reqs:   w.peakRequests(t, 0),
			taxis:  16,
			params: func(p *Params) {
				p.ShiftChange = ShiftChangeConfig{AtSeconds: 8*3600 + 600, Fraction: 0.25, LagSeconds: 300, Seed: 9}
			},
			want: 0x9a0403ef3d6033b2,
		},
	}
}

// run runs the cell from the top of its first request's hour.
func (c simCell) run(t *testing.T, w *world) (*Engine, *Metrics) {
	t.Helper()
	var params Params
	if c.params != nil {
		c.params(&params)
	}
	eng, err := NewEngine(w.g, c.scheme(), params)
	if err != nil {
		t.Fatal(err)
	}
	start := c.reqs[0].ReleaseAt.Truncate(time.Hour).Seconds()
	eng.PlaceTaxis(c.taxis, 3, 1, start)
	return eng, eng.Run(c.reqs, start)
}

// TestSimOutcomeFingerprint pins exact simulation outcomes on every
// fingerprint cell. A change that moves any outcome bit moves a
// fingerprint.
func TestSimOutcomeFingerprint(t *testing.T) {
	w := newWorld(t)
	for _, c := range fingerprintCells(t, w) {
		eng, m := c.run(t, w)
		if got := fingerprint(eng, m); got != c.want {
			t.Errorf("%s: fingerprint %#x, want %#x (served %d/%d, offline %d, from queue %d, expired in queue %d)",
				c.name, got, c.want, m.Served, m.Requests, m.ServedOffline, m.ServedFromQueue, m.ExpiredInQueue)
		}
	}
}

// TestSimLedgerAgrees runs the offline and the queue cell and reads the
// runtime's ledger: every request is in exactly one of four states —
// delivered, served but not yet delivered, expired, never served — an
// offline request that left the hailing list unserved is expired, and
// Metrics' outcome counts are counts over the ledger.
func TestSimLedgerAgrees(t *testing.T) {
	w := newWorld(t)
	for _, c := range fingerprintCells(t, w) {
		if c.name != "mtsharepro-nonpeak-offline" && c.name != "mtshare-queue" {
			continue
		}
		eng, m := c.run(t, w)
		hailing := map[*service.Request]bool{}
		for _, st := range eng.pending {
			hailing[st] = true
		}
		var served, offline, fromQueue, expiredInQueue, delivered, expiredOffline int
		for _, st := range eng.rt.Requests() {
			states := 0
			for _, in := range []bool{st.Delivered, st.Served && !st.Delivered, st.Expired, !st.Served && !st.Expired} {
				if in {
					states++
				}
			}
			if states != 1 {
				t.Fatalf("%s: request %d is in %d states: %+v", c.name, st.Req.ID, states, st.Lifecycle)
			}
			if st.Req.Offline && !st.Served && !st.Expired && !hailing[st] {
				t.Fatalf("%s: offline request %d left the hailing list unserved but is not expired", c.name, st.Req.ID)
			}
			served += b2i(st.Served)
			offline += b2i(st.Served && st.Req.Offline)
			fromQueue += b2i(st.Queued && st.Served)
			expiredInQueue += b2i(st.Queued && st.Expired)
			delivered += b2i(st.Delivered)
			expiredOffline += b2i(st.Req.Offline && st.Expired)
		}
		got := [5]int{m.Served, m.ServedOffline, m.ServedFromQueue, m.ExpiredInQueue, m.Delivered}
		if want := [5]int{served, offline, fromQueue, expiredInQueue, delivered}; got != want {
			t.Fatalf("%s: Metrics (served, offline, from queue, expired in queue, delivered) = %v, the ledger counts %v",
				c.name, got, want)
		}
		if c.params == nil && (offline == 0 || expiredOffline == 0) {
			t.Fatalf("%s: %d offline requests served and %d expired; the cell must do both", c.name, offline, expiredOffline)
		}
		if c.params != nil && (fromQueue == 0 || expiredInQueue == 0) {
			t.Fatalf("%s: %d requests served from the queue and %d expired in it; the cell must do both", c.name, fromQueue, expiredInQueue)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
