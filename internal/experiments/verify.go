package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// Verify runs the headline-claim self-check: each row asserts one of the
// paper's qualitative results against freshly measured (memoised) runs at
// this lab's scale and reports PASS/FAIL. It is the machine-checkable
// summary of EXPERIMENTS.md: when any claim fails it returns the rendered
// result together with an error.
func (l *Lab) Verify() (*Result, error) {
	r := &Result{
		ID:     "verify",
		Title:  "Headline-claim self-check",
		Header: []string{"claim", "measured", "status"},
		Notes: []string{
			"claims asserted in *shape* at this scale; see EXPERIMENTS.md for the paper-vs-measured detail",
		},
	}
	taxis := l.World.Scale.DefaultTaxis

	type check struct {
		claim    string
		measured string
		pass     bool
	}
	var checks []check
	add := func(claim, measured string, pass bool) {
		checks = append(checks, check{claim, measured, pass})
	}

	// Peak-scenario runs.
	peak := map[SchemeName]*sim.Metrics{}
	for _, s := range peakSchemes {
		m, err := l.RunAvg(Scenario{Scheme: s, Window: "peak", Taxis: taxis})
		if err != nil {
			return nil, err
		}
		peak[s] = m
	}
	add("ridesharing serves more than No-Sharing (peak)",
		fmt.Sprintf("mT-Share %d vs No-Sharing %d", peak[MTShare].Served, peak[NoSharing].Served),
		peak[MTShare].Served > peak[NoSharing].Served)
	add("No-Sharing has zero detour",
		fmt.Sprintf("%.3f min", peak[NoSharing].MeanDetourMin),
		peak[NoSharing].MeanDetourMin < 0.02)
	add("mT-Share detour below pGreedyDP's (Fig. 8)",
		fmt.Sprintf("%.2f vs %.2f min", peak[MTShare].MeanDetourMin, peak[PGreedyDP].MeanDetourMin),
		peak[MTShare].MeanDetourMin < peak[PGreedyDP].MeanDetourMin)
	add("mT-Share responds in milliseconds",
		fmt.Sprintf("%.2f ms", peak[MTShare].MeanResponseMs),
		peak[MTShare].MeanResponseMs > 0 && peak[MTShare].MeanResponseMs < 1000)
	add("candidate sets: No-Sharing smallest, pGreedyDP largest (Table III)",
		fmt.Sprintf("%.1f / %.1f / %.1f / %.1f",
			peak[NoSharing].MeanCandidates, peak[MTShare].MeanCandidates,
			peak[TShare].MeanCandidates, peak[PGreedyDP].MeanCandidates),
		peak[NoSharing].MeanCandidates < peak[PGreedyDP].MeanCandidates &&
			peak[MTShare].MeanCandidates < peak[PGreedyDP].MeanCandidates)
	add("sharing raises fleet occupancy",
		fmt.Sprintf("mT-Share %.2f vs No-Sharing %.2f pax-m/taxi-m",
			peak[MTShare].MeanOccupancy, peak[NoSharing].MeanOccupancy),
		peak[MTShare].MeanOccupancy > peak[NoSharing].MeanOccupancy)

	// Non-peak with offline subset.
	plain, err := l.RunAvg(Scenario{Scheme: MTShare, Window: "nonpeak", HasOffline: true, Taxis: taxis})
	if err != nil {
		return nil, err
	}
	pro, err := l.RunAvg(Scenario{Scheme: MTSharePro, Window: "nonpeak", HasOffline: true, Taxis: taxis})
	if err != nil {
		return nil, err
	}
	add("probabilistic routing serves more offline requests (Fig. 16)",
		fmt.Sprintf("pro %d vs plain %d offline", pro.ServedOffline, plain.ServedOffline),
		pro.ServedOffline > plain.ServedOffline)
	add("probabilistic routing costs response time (Fig. 11)",
		fmt.Sprintf("pro %.2f vs plain %.2f ms", pro.MeanResponseMs, plain.MeanResponseMs),
		pro.MeanResponseMs > plain.MeanResponseMs)

	// Payment (Fig. 19).
	add("passengers save money under the payment model",
		fmt.Sprintf("fare saving %.1f%%", peak[MTShare].FareSaving*100),
		peak[MTShare].FareSaving > 0)
	// Driver income equals the total paid by Eqs. 5–8.
	add("drivers earn more than under No-Sharing",
		fmt.Sprintf("%.0f vs %.0f income", peak[MTShare].TotalPaid, peak[NoSharing].TotalPaid),
		peak[MTShare].TotalPaid > peak[NoSharing].TotalPaid)

	// Partitioning ablation (Table V, peak side).
	grid, err := l.RunAvg(Scenario{Scheme: MTShare, Window: "peak", Taxis: taxis, Partitioning: "grid"})
	if err != nil {
		return nil, err
	}
	add("bipartite partitioning serves at least as many as grid (Table V, peak)",
		fmt.Sprintf("%d vs %d", peak[MTShare].Served, grid.Served),
		peak[MTShare].Served >= grid.Served)

	passed := 0
	for _, c := range checks {
		status := "FAIL"
		if c.pass {
			status = "PASS"
			passed++
		}
		r.Rows = append(r.Rows, []string{c.claim, c.measured, status})
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%d/%d claims hold at this scale", passed, len(checks)))
	if passed < len(checks) {
		return r, fmt.Errorf("experiments: verify: %d of %d claims fail", len(checks)-passed, len(checks))
	}
	return r, nil
}
