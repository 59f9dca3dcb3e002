package experiments

import "fmt"

// Experiment names one regenerable artefact.
type Experiment struct {
	ID  string
	Run func(l *Lab) (*Result, error)
}

// All lists every table and figure of §V plus the repository's extra
// ablations, in paper order. The one-axis figures are sweepFig specs;
// the rest have shapes of their own.
func All() []Experiment {
	return []Experiment{
		{"fig5", (*Lab).Fig5},
		sweepFig{
			id: "fig6", title: "Served requests vs number of taxis (peak)",
			xLabel: "taxis", yLabel: "served requests",
			note:    "paper: mT-Share serves the most; +42% vs T-Share, +36% vs pGreedyDP at the largest fleet",
			schemes: peakSchemes, axis: byTaxis, metrics: []metric{{of: served}},
		}.experiment(),
		sweepFig{
			id: "fig7", title: "Response time vs number of taxis (peak)",
			xLabel: "taxis", yLabel: "mean response time (ms)",
			note:    "paper: No-Sharing <1ms; mT-Share within 35-140ms, 4-10x faster than pGreedyDP, a bit above T-Share",
			schemes: peakSchemes, axis: byTaxis, metrics: []metric{{of: responseMs}},
		}.experiment(),
		{"tab3", (*Lab).Table3},
		sweepFig{
			id: "fig8", title: "Detour time vs number of taxis (peak)",
			xLabel: "taxis", yLabel: "mean detour (min)",
			note:    "paper: No-Sharing 0; T-Share lowest among sharing; mT-Share close second; pGreedyDP ~2x T-Share",
			schemes: peakSchemes, axis: byTaxis, metrics: []metric{{of: detourMin}},
		}.experiment(),
		sweepFig{
			id: "fig9", title: "Waiting time vs number of taxis (peak)",
			xLabel: "taxis", yLabel: "mean waiting (min)",
			note:    "paper: T-Share smallest; mT-Share slightly above pGreedyDP (<0.5 min gap); decreases with fleet size",
			schemes: peakSchemes, axis: byTaxis, metrics: []metric{{of: waitingMin}},
		}.experiment(),
		sweepFig{
			id: "fig10", title: "Served requests vs number of taxis (non-peak, offline subset hidden)",
			xLabel: "taxis", yLabel: "served requests",
			note:    "paper: mT-Share_pro serves the most (+13-24% over mT-Share; +62%/+58% vs T-Share/pGreedyDP)",
			schemes: nonpeakSchemes, nonpeak: true, axis: byTaxis, metrics: []metric{{of: served}},
		}.experiment(),
		sweepFig{
			id: "fig11", title: "Response time vs number of taxis (non-peak)",
			xLabel: "taxis", yLabel: "mean response time (ms)",
			note:    "paper: mT-Share_pro 2.5-4.5x slower than mT-Share but still faster than pGreedyDP",
			schemes: nonpeakSchemes, nonpeak: true, axis: byTaxis, metrics: []metric{{of: responseMs}},
		}.experiment(),
		sweepFig{
			id: "fig12", title: "Detour time vs number of taxis (non-peak)",
			xLabel: "taxis", yLabel: "mean detour (min)",
			note:    "paper: mT-Share_pro the largest detour, but within ~0.5 min of pGreedyDP",
			schemes: nonpeakSchemes, nonpeak: true, axis: byTaxis, metrics: []metric{{of: detourMin}},
		}.experiment(),
		sweepFig{
			id: "fig13", title: "Waiting time vs number of taxis (non-peak)",
			xLabel: "taxis", yLabel: "mean waiting (min)",
			note:    "paper: larger than peak overall; mT-Share_pro the largest (~2 min above pGreedyDP)",
			schemes: nonpeakSchemes, nonpeak: true, axis: byTaxis, metrics: []metric{{of: waitingMin}},
		}.experiment(),
		{"tab4", (*Lab).Table4},
		sweepFig{
			id: "fig14a", title: "Impact of partition number kappa on served requests (peak, mT-Share)",
			xLabel: "kappa", yLabel: "served requests",
			note:    "paper: served requests rise then fall; the sweet spot sits mid-sweep (kappa=150 of 50-250)",
			schemes: []SchemeName{MTShare}, axis: byKappa, metrics: []metric{{of: served}},
		}.experiment(),
		sweepFig{
			id: "fig14b", title: "Impact of taxi capacity on served requests (peak, mT-Share)",
			xLabel: "capacity (seats)", yLabel: "served requests",
			note:    "paper: capacity 6 serves ~12% more than capacity 2",
			schemes: []SchemeName{MTShare}, axis: byCapacity, metrics: []metric{{of: served}},
		}.experiment(),
		{"tab5", (*Lab).Table5},
		sweepFig{
			id: "fig15", title: "Impact of search range gamma on detour and waiting time (peak)",
			xLabel: "gamma (m)", yLabel: "minutes",
			note:    "paper: both detour and waiting grow with gamma; T-Share best service quality, mT-Share better than pGreedyDP",
			schemes: peakSchemes, axis: byGamma, metrics: []metric{{"detour", detourMin}, {"waiting", waitingMin}},
		}.experiment(),
		{"fig16", (*Lab).Fig16},
		sweepFig{
			id: "fig17", title: "Impact of flexible factor rho on waiting time (peak)",
			xLabel: "rho", yLabel: "mean waiting (min)",
			note:    "paper: waiting grows with rho; T-Share shortest; mT-Share within 1.2 min of pGreedyDP",
			schemes: []SchemeName{TShare, PGreedyDP, MTShare}, axis: byRho, metrics: []metric{{of: waitingMin}},
		}.experiment(),
		sweepFig{
			id: "fig18", title: "Impact of rho on detour time and served requests (peak, mT-Share)",
			xLabel: "rho", yLabel: "detour (min) / served",
			note:    "paper: both grow with rho; beyond rho=1.3 serving gains flatten while detour keeps climbing (+4% served costs +48% detour at 1.4)",
			schemes: []SchemeName{MTShare}, axis: byRho, metrics: []metric{{"detour (min)", detourMin}, {"served requests", served}},
		}.experiment(),
		{"fig19", (*Lab).Fig19},
		sweepFig{
			id: "fig20", title: "Impact of max direction difference theta on served requests and response time (peak, mT-Share)",
			xLabel: "theta (deg)", yLabel: "served / response (ms)",
			note:    "paper: served grows slightly with theta while response time grows steeply; theta=45 balances both",
			schemes: []SchemeName{MTShare}, axis: byTheta, metrics: []metric{{"served requests", served}, {"response (ms)", responseMs}},
		}.experiment(),
		{"fig21", (*Lab).Fig21},
		{"ablate-filter", (*Lab).AblationPartitionFilter},
		{"ablate-probtradeoff", (*Lab).AblationProbTradeoff},
		{"ablate-queue", (*Lab).AblationQueue},
		{"ablate-landmark", (*Lab).AblationLandmark},
		{"ablate-batch-assign", (*Lab).AblationBatchAssign},
		{"ablate-surge", (*Lab).AblationSurge},
		{"ablate-hotspot", (*Lab).AblationHotspot},
		{"ablate-shift", (*Lab).AblationShiftChange},
		{"ablate-meeting-points", (*Lab).AblationMeetingPoints},
		{"verify", (*Lab).Verify},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
