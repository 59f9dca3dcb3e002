package mtshare

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func newSystem(t testing.TB, probabilistic bool) *System {
	t.Helper()
	s, err := New(Options{Policy: Policy{Probabilistic: probabilistic}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// at returns a point at fractional coordinates of the system's bounds.
func at(s *System, fLat, fLng float64) Point {
	min, max := s.Bounds()
	return Point{
		Lat: min.Lat + fLat*(max.Lat-min.Lat),
		Lng: min.Lng + fLng*(max.Lng-min.Lng),
	}
}

func TestSystemDefaults(t *testing.T) {
	s := newSystem(t, false)
	st := s.Stats()
	if st.RoadVertices < 100 || st.RoadEdges < st.RoadVertices {
		t.Fatalf("world too small: %+v", st)
	}
	if st.Partitions < 2 {
		t.Fatalf("partitions = %d", st.Partitions)
	}
	if s.Now() != 0 {
		t.Fatal("clock not at zero")
	}
}

func TestSubmitAndRide(t *testing.T) {
	s := newSystem(t, false)
	id, err := s.AddTaxi(at(s, 0.5, 0.5), 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.SubmitRequest(context.Background(), at(s, 0.52, 0.52), at(s, 0.85, 0.85), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Taxi != id {
		t.Fatalf("assigned taxi %d, want %d", a.Taxi, id)
	}
	if a.PickupETA < 0 || a.DropoffETA <= a.PickupETA {
		t.Fatalf("ETAs: pickup %v dropoff %v", a.PickupETA, a.DropoffETA)
	}
	if a.FareEstimate <= 0 {
		t.Fatal("no fare estimate")
	}
	// Ride to completion.
	var picked, delivered bool
	for i := 0; i < 2000 && !delivered; i++ {
		for _, ev := range s.Advance(5 * time.Second) {
			if ev.Request != a.Request {
				continue
			}
			if ev.Pickup {
				picked = true
			} else {
				delivered = true
				if ev.At <= 0 {
					t.Fatal("delivery with no timestamp")
				}
			}
		}
	}
	if !picked || !delivered {
		t.Fatalf("ride incomplete: picked=%v delivered=%v", picked, delivered)
	}
	ts, err := s.Taxi(id)
	if err != nil {
		t.Fatal(err)
	}
	if ts.OccupiedSeats != 0 || ts.PendingEvents != 0 {
		t.Fatalf("taxi not idle after delivery: %+v", ts)
	}
}

func TestRideSharingTwoPassengers(t *testing.T) {
	s := newSystem(t, false)
	if _, err := s.AddTaxi(at(s, 0.2, 0.2), 3); err != nil {
		t.Fatal(err)
	}
	a1, err := s.SubmitRequest(context.Background(), at(s, 0.2, 0.2), at(s, 0.85, 0.85), 1.6)
	if err != nil {
		t.Fatalf("first request: %v", err)
	}
	a2, err := s.SubmitRequest(context.Background(), at(s, 0.3, 0.3), at(s, 0.75, 0.75), 1.8)
	if err != nil {
		t.Fatalf("second request: %v", err)
	}
	if a1.Taxi != a2.Taxi {
		t.Fatalf("no sharing: taxis %d and %d", a1.Taxi, a2.Taxi)
	}
	ts, _ := s.Taxi(a1.Taxi)
	if ts.PendingEvents != 4 {
		t.Fatalf("pending events = %d, want 4", ts.PendingEvents)
	}
}

func TestNoTaxiMeansUnserved(t *testing.T) {
	s := newSystem(t, false)
	a, err := s.SubmitRequest(context.Background(), at(s, 0.4, 0.4), at(s, 0.8, 0.8), 1.3)
	if !errors.Is(err, ErrNoTaxiAvailable) {
		t.Fatalf("err = %v, want ErrNoTaxiAvailable", err)
	}
	if a.CandidateTaxis != 0 {
		t.Fatalf("candidates = %d with no fleet", a.CandidateTaxis)
	}
}

func TestStreetHail(t *testing.T) {
	s := newSystem(t, true)
	id, err := s.AddTaxi(at(s, 0.4, 0.4), 3)
	if err != nil {
		t.Fatal(err)
	}
	serving, err := s.ReportStreetHail(context.Background(), id, at(s, 0.41, 0.41), at(s, 0.8, 0.8), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if serving != id {
		t.Fatalf("street hail served by taxi %d, want %d", serving, id)
	}
	if _, err := s.ReportStreetHail(context.Background(), 999, at(s, 0.4, 0.4), at(s, 0.8, 0.8), 1.5); !errors.Is(err, ErrUnknownTaxi) {
		t.Fatalf("unknown taxi: err = %v, want ErrUnknownTaxi", err)
	}
}

func TestRequestValidation(t *testing.T) {
	s := newSystem(t, false)
	p := at(s, 0.5, 0.5)
	if _, err := s.SubmitRequest(context.Background(), p, p, 1.3); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("degenerate request: err = %v, want ErrInvalidRequest", err)
	}
	if _, err := s.SubmitRequest(context.Background(), p, at(s, 0.8, 0.8), 0.9); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("flexibility 0.9: err = %v, want ErrInvalidRequest", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []Options{
		{SyntheticCityRows: -1},
		{SyntheticCityRows: 1, SyntheticCityCols: 1},
		{Partitions: -4},
		{SpeedKmh: -15},
		{SearchRangeMeters: -1},
		{MaxDirectionDiffDegrees: 270},
		{TraceSampleEvery: -1},
	}
	for _, opts := range cases {
		if err := opts.Validate(); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Validate(%+v) = %v, want ErrInvalidOptions", opts, err)
		}
		if _, err := New(opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("New(%+v) = %v, want ErrInvalidOptions", opts, err)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("DefaultOptions invalid: %v", err)
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero Options invalid: %v", err)
	}
}

func TestCloseShutsDown(t *testing.T) {
	s := newSystem(t, false)
	if _, err := s.AddTaxi(at(s, 0.5, 0.5), 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
	if _, err := s.SubmitRequest(context.Background(), at(s, 0.5, 0.5), at(s, 0.8, 0.8), 1.3); !errors.Is(err, ErrShutdown) {
		t.Fatalf("SubmitRequest after Close: err = %v, want ErrShutdown", err)
	}
	if _, err := s.ReportStreetHail(context.Background(), 1, at(s, 0.5, 0.5), at(s, 0.8, 0.8), 1.3); !errors.Is(err, ErrShutdown) {
		t.Fatalf("ReportStreetHail after Close: err = %v, want ErrShutdown", err)
	}
	if _, err := s.AddTaxi(at(s, 0.4, 0.4), 3); !errors.Is(err, ErrShutdown) {
		t.Fatalf("AddTaxi after Close: err = %v, want ErrShutdown", err)
	}
}

func TestMetricsSurface(t *testing.T) {
	s := newSystem(t, false)
	if _, err := s.AddTaxi(at(s, 0.5, 0.5), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitRequest(context.Background(), at(s, 0.52, 0.52), at(s, 0.85, 0.85), 1.5); err != nil {
		t.Fatal(err)
	}
	snap := s.MetricsSnapshot()
	if got := snap.Counters["mtshare_match_dispatches_total"]; got != 1 {
		t.Fatalf("dispatches counter = %d, want 1", got)
	}
	if h, ok := snap.Histograms["mtshare_match_dispatch_seconds"]; !ok || h.Count != 1 {
		t.Fatalf("dispatch histogram = %+v, want one observation", h)
	}
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mtshare_match_dispatches_total 1",
		"mtshare_match_dispatch_seconds_bucket",
		"mtshare_roadnet_cache_hits_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestFareQuote(t *testing.T) {
	s := newSystem(t, false)
	fs := s.FareQuote(9000, []SharedRide{
		{DirectMeters: 6000, RiddenMeters: 7000},
		{DirectMeters: 5000, RiddenMeters: 5000},
	})
	if fs.Benefit <= 0 {
		t.Fatalf("no benefit: %+v", fs)
	}
	if len(fs.Fares) != 2 || len(fs.Savings) != 2 {
		t.Fatal("fares misaligned")
	}
	if fs.Savings[0] <= fs.Savings[1] {
		t.Fatal("larger detour did not earn larger saving")
	}
	if fs.DriverIncome <= fs.RouteFare {
		t.Fatal("driver earned no benefit share")
	}
}

func TestProbabilisticCruising(t *testing.T) {
	s := newSystem(t, true)
	id, err := s.AddTaxi(at(s, 0.1, 0.1), 4)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := s.Taxi(id)
	for i := 0; i < 200; i++ {
		s.Advance(5 * time.Second)
	}
	after, _ := s.Taxi(id)
	// An idle taxi in probabilistic mode cruises toward demand.
	if before.Position == after.Position {
		t.Fatal("idle taxi never cruised")
	}
}

func TestAdvanceClock(t *testing.T) {
	s := newSystem(t, false)
	s.Advance(30 * time.Second)
	s.Advance(30 * time.Second)
	if s.Now() != time.Minute {
		t.Fatalf("Now = %v", s.Now())
	}
}

// TestQueueLifecycle walks a request through the full pending-queue
// lifecycle: parked on dispatch failure (ErrQueued), backpressure when
// the queue fills (ErrQueueFull), then served by a later tick's batch
// re-dispatch once a taxi appears.
func TestQueueLifecycle(t *testing.T) {
	s, err := New(Options{Seed: 1, Policy: Policy{QueueDepth: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// No fleet yet: requests park instead of failing outright.
	a1, err := s.SubmitRequest(ctx, at(s, 0.2, 0.2), at(s, 0.6, 0.6), 1.8)
	if !errors.Is(err, ErrQueued) {
		t.Fatalf("first request: err = %v, want ErrQueued", err)
	}
	if a1.Request == 0 {
		t.Fatal("queued request carries no ID")
	}
	a2, err := s.SubmitRequest(ctx, at(s, 0.25, 0.2), at(s, 0.6, 0.65), 1.8)
	if !errors.Is(err, ErrQueued) {
		t.Fatalf("second request: err = %v, want ErrQueued", err)
	}
	if _, err := s.SubmitRequest(ctx, at(s, 0.3, 0.3), at(s, 0.7, 0.7), 1.8); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third request: err = %v, want ErrQueueFull", err)
	}
	qs := s.QueueStats()
	if !qs.Enabled || qs.Capacity != 2 || qs.Depth != 2 || qs.Enqueued != 2 || qs.Rejected != 1 {
		t.Fatalf("after filling: %+v", qs)
	}

	// One empty tick: the retry round runs, finds no taxi, and the
	// requests stay parked (so their eventual waits are positive).
	if _, qo := s.AdvanceWithQueue(time.Second); len(qo.Matched) != 0 || len(qo.Expired) != 0 {
		t.Fatalf("tick with no fleet: %+v", qo)
	}

	// A taxi appears near the pickups; the next retry rounds drain the
	// queue via batch re-dispatch.
	if _, err := s.AddTaxi(at(s, 0.2, 0.2), 4); err != nil {
		t.Fatal(err)
	}
	var matched []QueueMatchEvent
	for i := 0; i < 3 && len(matched) < 2; i++ {
		_, qo := s.AdvanceWithQueue(time.Second)
		matched = append(matched, qo.Matched...)
	}
	if len(matched) != 2 {
		t.Fatalf("queue matched %d requests, want 2: %+v", len(matched), matched)
	}
	seen := map[RequestID]bool{}
	for _, m := range matched {
		seen[m.Request] = true
		if m.Wait <= 0 {
			t.Fatalf("match %+v reports no wait time", m)
		}
	}
	if !seen[a1.Request] || !seen[a2.Request] {
		t.Fatalf("matched %v, want requests %d and %d", matched, a1.Request, a2.Request)
	}
	qs = s.QueueStats()
	if qs.Depth != 0 || qs.Served != 2 {
		t.Fatalf("after draining: %+v", qs)
	}
}

// TestQueueExpiry pins the eviction side: a parked request whose pickup
// deadline passes without a taxi is evicted with a distinct terminal
// outcome, not retried forever.
func TestQueueExpiry(t *testing.T) {
	s, err := New(Options{Seed: 1, Policy: Policy{QueueDepth: 4}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.SubmitRequest(context.Background(), at(s, 0.3, 0.3), at(s, 0.7, 0.7), 1.3)
	if !errors.Is(err, ErrQueued) {
		t.Fatalf("err = %v, want ErrQueued", err)
	}
	// First tick moves the clock past every deadline; the second tick's
	// queue maintenance (which runs before taxis advance) evicts.
	s.AdvanceWithQueue(2 * time.Hour)
	_, qo := s.AdvanceWithQueue(time.Second)
	if len(qo.Expired) != 1 || qo.Expired[0] != a.Request {
		t.Fatalf("expired %v, want [%d]", qo.Expired, a.Request)
	}
	qs := s.QueueStats()
	if qs.Depth != 0 || qs.Expired != 1 {
		t.Fatalf("after expiry: %+v", qs)
	}
}
