package main

import (
	"fmt"
	"runtime"
)

// kneeLimitMs is the dispatch p95 a rate must hold to count as met.
const kneeLimitMs = 50

// kneeSteps are the open-loop rates tried, as multiples of the steady
// workload's fixed rate.
var kneeSteps = []float64{2, 3, 4, 5, 6}

// runKnee steps the steady workload through rising arrival rates on one
// server and prints bench.knee_rps: the highest rate whose dispatch p95
// stays within kneeLimitMs with no backlog left growing
// at the step's end. It is reported, not gated: neighbouring steps are
// further apart than any bound.
func (b bench) runKnee() error {
	w, _ := findWorkload("steady")
	e, err := startServer(w.config(""))
	if err != nil {
		return err
	}
	defer e.close()
	knee := 0.0
	for i, mult := range kneeSteps {
		step := w
		step.rate = w.rate * mult
		ops := newSchedule(step, b.seed+int64(i), 1, b.seconds/float64(len(kneeSteps)), 0)[0].open
		p, err := runPhase(b.ctx, e, ops, runtime.NumCPU(), true, nil)
		if err != nil {
			return err
		}
		var lat []float64
		failed := 0
		for _, s := range p.samples {
			if s.kind != opRide {
				continue
			}
			if !s.ok() {
				failed++
			}
			lat = append(lat, s.latencyMs())
		}
		p95, tail := percentile(lat, 0.95), median(lat[len(lat)*9/10:])
		holds := failed == 0 && p95 <= kneeLimitMs && tail <= kneeLimitMs
		fmt.Printf("knee step %.0f rps: %d rides, dispatch p95 %.2f ms, last-tenth p50 %.2f ms, failed %d, holds %v\n",
			step.rate, len(lat), p95, tail, failed, holds)
		if !holds {
			break
		}
		knee = step.rate
	}
	fmt.Printf("  %-40s %14.4f 1/s\n", "bench.knee_rps", knee)
	return nil
}
