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
)

// fingerprint hashes a run's outcomes: every RequestRecord field in record
// order except ResponseNanos (wall clock) and the request's ID value (a
// label, not an outcome), then the Metrics counts and the fleet's
// odometer totals. Floats hash by their bits.
func fingerprint(m *Metrics) uint64 {
	h := fnv.New64a()
	for _, rec := range m.Records {
		r := rec.Req
		put(h, int64(r.ReleaseAt), int64(r.Origin), int64(r.Dest), int64(r.Deadline), r.DirectMeters,
			int64(r.Passengers), r.Offline, r.OriginPt.Lat, r.OriginPt.Lng, r.DestPt.Lat, r.DestPt.Lng)
		put(h, rec.Served, rec.ServedOffline, rec.Delivered, rec.Expired, rec.TaxiID,
			rec.Queued, rec.ServedFromQueue, int64(rec.QueueRetries), rec.QueueWaitSeconds,
			rec.AssignSeconds, rec.PickupSeconds, rec.DropoffSeconds, int64(rec.Candidates),
			rec.pickupOdo, rec.dropoffOdo, rec.RegularFare, rec.PaidFare)
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

// TestSimOutcomeFingerprint pins exact simulation outcomes on one cell per
// path through the engine: the pending queue's batch retry round, the
// per-request retry fallback of a scheme without a batch path, roadside
// encounters with and without the fallback dispatch, probabilistic idle
// cruising, and a shift changeover. A change that moves any outcome bit
// moves a fingerprint.
func TestSimOutcomeFingerprint(t *testing.T) {
	w := newWorld(t)
	prep := func(hour time.Duration, rho, offlineFrac float64) []*fleet.Request {
		trips := w.ds.Between(hour, hour+time.Hour)
		return PrepareRequests(w.rt, w.spx, trips, PrepareOptions{
			Rho: rho, OfflineFrac: offlineFrac, Seed: 7,
		})
	}
	for _, c := range []struct {
		name   string
		scheme func() dispatch.Scheme
		reqs   []*fleet.Request
		taxis  int
		params func(*Params)
		want   uint64
	}{
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
	} {
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
		m := eng.Run(c.reqs, start)
		if got := fingerprint(m); got != c.want {
			t.Errorf("%s: fingerprint %#x, want %#x (served %d/%d, offline %d, from queue %d, expired in queue %d)",
				c.name, got, c.want, m.Served, m.Requests, m.ServedOffline, m.ServedFromQueue, m.ExpiredInQueue)
		}
	}
}
