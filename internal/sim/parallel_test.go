package sim

import (
	"math"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/match"
)

// mtShareParallel builds the mT-Share scheme with an explicit dispatch
// parallelism.
func (w *world) mtShareParallel(t testing.TB, probabilistic bool, parallelism int) dispatch.Scheme {
	t.Helper()
	cfg := match.DefaultConfig()
	cfg.SearchRangeMeters = 2500
	cfg.Parallelism = parallelism
	cfg.CH = w.rt.CH()
	e, err := match.NewEngine(w.pt, w.spx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return match.NewScheme(e, probabilistic)
}

// TestSimParallelMatchesSequential runs the same seeded peak hour with
// sequential and parallel dispatch and requires identical simulation
// outcomes: per-request served, delivery and pending-queue outcomes,
// pickup/dropoff times, and fleet odometer totals (ResponseNanos is
// wall-clock and excluded). The queue case parks dispatch failures on a
// small fleet and retries them every other tick, so batch re-dispatch
// and expiry are covered too.
func TestSimParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour simulation")
	}
	w := newWorld(t)
	for _, c := range []struct {
		name          string
		probabilistic bool
		offlineFrac   float64
		taxis         int
		queueDepth    int
		retryEvery    int
	}{
		{name: "plain", probabilistic: true, offlineFrac: 0.2, taxis: 40},
		{name: "queue", taxis: 8, queueDepth: 24, retryEvery: 2},
	} {
		run := func(dispatchPar int) *Metrics {
			params := Params{QueueDepth: c.queueDepth, RetryEveryTicks: c.retryEvery}
			eng, err := NewEngine(w.g, w.mtShareParallel(t, c.probabilistic, dispatchPar), params)
			if err != nil {
				t.Fatal(err)
			}
			start := 8 * 3600.0
			eng.PlaceTaxis(c.taxis, 3, 1, start)
			return eng.Run(w.peakRequests(t, c.offlineFrac), start)
		}
		base := run(1)
		if base.Served == 0 || base.Delivered == 0 {
			t.Fatalf("%s: baseline run served nothing; test is vacuous", c.name)
		}
		if c.queueDepth > 0 && (base.ServedFromQueue == 0 || base.ExpiredInQueue == 0) {
			t.Fatalf("%s: workload did not exercise the queue: %d served from it, %d expired in it",
				c.name, base.ServedFromQueue, base.ExpiredInQueue)
		}
		got := run(8)
		if got.Served != base.Served || got.Delivered != base.Delivered ||
			got.ServedOffline != base.ServedOffline {
			t.Fatalf("%s: served/delivered (%d,%d) vs baseline (%d,%d)",
				c.name, got.Served, got.Delivered, base.Served, base.Delivered)
		}
		if math.Float64bits(got.TaxiMeters) != math.Float64bits(base.TaxiMeters) {
			t.Fatalf("%s: TaxiMeters %v vs %v", c.name, got.TaxiMeters, base.TaxiMeters)
		}
		if math.Float64bits(got.PassengerMeters) != math.Float64bits(base.PassengerMeters) {
			t.Fatalf("%s: PassengerMeters %v vs %v", c.name, got.PassengerMeters, base.PassengerMeters)
		}
		if len(got.Records) != len(base.Records) {
			t.Fatalf("%s: %d records vs %d", c.name, len(got.Records), len(base.Records))
		}
		for i, br := range base.Records {
			gr := got.Records[i]
			if gr.Req.ID != br.Req.ID || gr.Served != br.Served || gr.Delivered != br.Delivered {
				t.Fatalf("%s: record %d flags differ", c.name, i)
			}
			if gr.Queued != br.Queued || gr.ServedFromQueue != br.ServedFromQueue ||
				gr.Expired != br.Expired || gr.QueueRetries != br.QueueRetries ||
				math.Float64bits(gr.QueueWaitSeconds) != math.Float64bits(br.QueueWaitSeconds) {
				t.Fatalf("%s: record %d (req %d) queue outcome differs", c.name, i, gr.Req.ID)
			}
			if math.Float64bits(gr.PickupSeconds) != math.Float64bits(br.PickupSeconds) ||
				math.Float64bits(gr.DropoffSeconds) != math.Float64bits(br.DropoffSeconds) ||
				math.Float64bits(gr.AssignSeconds) != math.Float64bits(br.AssignSeconds) {
				t.Fatalf("%s: record %d (req %d) times differ", c.name, i, gr.Req.ID)
			}
		}
	}
}
