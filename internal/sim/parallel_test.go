package sim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/match"
)

// TestSimParallelMatchesSequential runs the same seeded peak hour at
// GOMAXPROCS 1 and 8 and requires identical simulation outcomes:
// per-request served, delivery and pending-queue outcomes, pickup/dropoff
// times, and fleet odometer totals (ResponseNanos is wall-clock and
// excluded). The queue case parks dispatch failures on a small fleet and
// retries them every other tick, so batch re-dispatch and expiry are
// covered too. The batch case solves its retry rounds with the global
// assignment (Config.BatchAssign); rho 2.2 keeps parked requests alive
// across retry rounds, so several requests contest one taxi.
func TestSimParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour simulation")
	}
	w := newWorld(t)
	for _, c := range []struct {
		name          string
		probabilistic bool
		rho           float64
		offlineFrac   float64
		taxis         int
		queueDepth    int
		retryEvery    int
		batchAssign   bool
	}{
		{name: "plain", probabilistic: true, rho: 1.3, offlineFrac: 0.2, taxis: 40},
		{name: "queue", rho: 1.3, taxis: 8, queueDepth: 24, retryEvery: 2},
		{name: "batch", rho: 2.2, taxis: 8, queueDepth: 24, retryEvery: 4, batchAssign: true},
	} {
		run := func(procs int) (*Metrics, match.EngineStats) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			e := w.mtShareEngine(t, func(cfg *match.Config) { cfg.BatchAssign = c.batchAssign })
			params := Params{QueueDepth: c.queueDepth, RetryEveryTicks: c.retryEvery}
			eng, err := NewEngine(w.g, match.NewScheme(e, c.probabilistic), params)
			if err != nil {
				t.Fatal(err)
			}
			start := 8 * 3600.0
			eng.PlaceTaxis(c.taxis, 3, 1, start)
			return eng.Run(w.peakRequestsRho(t, c.rho, c.offlineFrac), start), e.Stats()
		}
		base, baseStats := run(1)
		if base.Served == 0 || base.Delivered == 0 {
			t.Fatalf("%s: baseline run served nothing; test is vacuous", c.name)
		}
		if c.queueDepth > 0 && (base.ServedFromQueue == 0 || base.ExpiredInQueue == 0) {
			t.Fatalf("%s: workload did not exercise the queue: %d served from it, %d expired in it",
				c.name, base.ServedFromQueue, base.ExpiredInQueue)
		}
		if solved := baseStats.BatchAssignRounds - baseStats.BatchAssignFallbacks; c.batchAssign && solved <= 0 {
			t.Fatalf("%s: no retry round reached the global solver (%d rounds, %d fallbacks); test is vacuous",
				c.name, baseStats.BatchAssignRounds, baseStats.BatchAssignFallbacks)
		}
		got, gotStats := run(8)
		if gotStats.BatchAssignRounds != baseStats.BatchAssignRounds || gotStats.BatchAssignFallbacks != baseStats.BatchAssignFallbacks {
			t.Fatalf("%s: %d assign rounds (%d fallbacks) vs baseline %d (%d)", c.name,
				gotStats.BatchAssignRounds, gotStats.BatchAssignFallbacks, baseStats.BatchAssignRounds, baseStats.BatchAssignFallbacks)
		}
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
			if gr.Queued != br.Queued ||
				gr.Expired != br.Expired || gr.QueueRetries != br.QueueRetries ||
				math.Float64bits(gr.QueueWait) != math.Float64bits(br.QueueWait) {
				t.Fatalf("%s: record %d (req %d) queue outcome differs", c.name, i, gr.Req.ID)
			}
			if math.Float64bits(gr.PickupAt) != math.Float64bits(br.PickupAt) ||
				math.Float64bits(gr.DropoffAt) != math.Float64bits(br.DropoffAt) ||
				math.Float64bits(gr.AssignAt) != math.Float64bits(br.AssignAt) {
				t.Fatalf("%s: record %d (req %d) times differ", c.name, i, gr.Req.ID)
			}
		}
	}
}
