package experiments

import (
	"fmt"

	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/roadnet"
	"repro/internal/sim"
)

// Table5 reproduces the map-partitioning ablation: bipartite versus grid
// partitioning for mT-Share in both scenarios.
func (l *Lab) Table5() (*Result, error) {
	r := &Result{
		ID: "tab5", Title: "Bipartite vs grid map partitioning (mT-Share)",
		Header: []string{"scenario", "partitioning", "served", "detour (min)"},
		Notes:  []string{"paper: bipartite partitioning serves >=6% more requests and cuts detour by 3-7% in both scenarios"},
	}
	for _, win := range []string{"peak", "nonpeak"} {
		offline := win == "nonpeak"
		scheme := MTShare
		if offline {
			scheme = MTSharePro
		}
		for _, kind := range []string{"bipartite", "grid"} {
			m, err := l.RunAvg(Scenario{Scheme: scheme, Window: win, HasOffline: offline, Partitioning: kind})
			if err != nil {
				return nil, err
			}
			r.Rows = append(r.Rows, []string{win, kind, fi(m.Served), f2(m.MeanDetourMin)})
		}
	}
	return r, nil
}

// Fig16 reproduces the routing-mode study: online/offline served
// composition for basic versus probabilistic routing combined with
// T-Share, pGreedyDP, and mT-Share (non-peak).
func (l *Lab) Fig16() (*Result, error) {
	r := &Result{
		ID: "fig16", Title: "Basic vs probabilistic routing: served composition (non-peak)",
		Header: []string{"scheme", "routing", "online", "offline", "total"},
		Notes: []string{
			"paper: probabilistic routing brings +89%/+46%/+34% more offline requests for T-Share/pGreedyDP/mT-Share",
			"baseline 'probabilistic' = the baseline dispatcher plus probabilistic cruising of idle taxis",
		},
	}
	type combo struct {
		scheme SchemeName
		label  string
		sc     Scenario
	}
	combos := []combo{
		{TShare, "basic", Scenario{Scheme: TShare, Window: "nonpeak", HasOffline: true}},
		{TShare, "probabilistic", Scenario{Scheme: TShare, Window: "nonpeak", HasOffline: true, BaselineCruise: true}},
		{PGreedyDP, "basic", Scenario{Scheme: PGreedyDP, Window: "nonpeak", HasOffline: true}},
		{PGreedyDP, "probabilistic", Scenario{Scheme: PGreedyDP, Window: "nonpeak", HasOffline: true, BaselineCruise: true}},
		{MTShare, "basic", Scenario{Scheme: MTShare, Window: "nonpeak", HasOffline: true}},
		{MTShare, "probabilistic", Scenario{Scheme: MTSharePro, Window: "nonpeak", HasOffline: true}},
	}
	for _, c := range combos {
		m, err := l.RunAvg(c.sc)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{
			string(c.scheme), c.label, fi(m.ServedOnline), fi(m.ServedOffline), fi(m.Served),
		})
	}
	return r, nil
}

// Fig19 reproduces the payment-model study: passengers' fare reduction
// and drivers' profit increase versus ρ (peak). Profit increase compares
// mT-Share's total driver income to the regular (No-Sharing) service at
// the same ρ.
func (l *Lab) Fig19() (*Result, error) {
	r := &Result{
		ID: "fig19", Title: "Impact of rho on fare reduction and driver profit increase (peak)",
		XLabel: "rho", YLabel: "percent",
		Notes: []string{"paper: at rho=1.3 passengers save 8.6% fare and drivers earn 7.8% more; larger rho saves passengers more but erodes driver profit"},
	}
	fare := Series{Label: "passenger fare saving (%)"}
	prof := Series{Label: "driver profit increase (%)"}
	for _, rho := range l.World.Scale.RhoSweep {
		mt, err := l.RunAvg(Scenario{Scheme: MTShare, Window: "peak", Rho: rho})
		if err != nil {
			return nil, err
		}
		no, err := l.RunAvg(Scenario{Scheme: NoSharing, Window: "peak", Rho: rho})
		if err != nil {
			return nil, err
		}
		fare.X = append(fare.X, rho)
		fare.Y = append(fare.Y, mt.FareSaving*100)
		prof.X = append(prof.X, rho)
		// Driver income equals the total paid by Eqs. 5–8.
		inc := 0.0
		if no.TotalPaid > 0 {
			inc = (mt.TotalPaid/no.TotalPaid - 1) * 100
		}
		prof.Y = append(prof.Y, inc)
	}
	r.Series = append(r.Series, fare, prof)
	return r, nil
}

// Fig21 reproduces the scalability study: total execution time and mean
// response time as the replayed data grows from 1 hour to 13 hours
// (workday for mT-Share, weekend with offline subset for mT-Share_pro).
func (l *Lab) Fig21() (*Result, error) {
	r := &Result{
		ID: "fig21", Title: "Scalability with used data amounts (7:00 onward)",
		XLabel: "hours of data", YLabel: "execution (s) / response (ms)",
		Notes: []string{"paper: execution time grows linearly with data volume; response time stays flat (110 ms workday / 420 ms weekend)"},
	}
	pipe0, rt0 := l.PipelineStats()
	for _, v := range []struct {
		sc    Scenario
		label string
	}{
		{Scenario{Scheme: MTShare, Window: "peak"}, "workday mT-Share"},
		{Scenario{Scheme: MTSharePro, Window: "nonpeak", HasOffline: true}, "weekend mT-Share-pro"},
	} {
		exec := Series{Label: v.label + " exec (s)"}
		resp := Series{Label: v.label + " resp (ms)"}
		for _, hours := range []int{1, 3, 5, 7} {
			sc := v.sc
			sc.hours = hours
			m, err := l.Run(sc)
			if err != nil {
				return nil, err
			}
			exec.X = append(exec.X, float64(hours))
			exec.Y = append(exec.Y, m.ExecutionSecs)
			resp.X = append(resp.X, float64(hours))
			resp.Y = append(resp.Y, m.MeanResponseMs)
		}
		r.Series = append(r.Series, exec, resp)
	}
	// Where the dispatch time of this sweep went, and how the router's pair
	// memo behaved (deltas over the sweep's own runs).
	pipe1, rt1 := l.PipelineStats()
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	r.Notes = append(r.Notes, fmt.Sprintf(
		"dispatch stages over this sweep: candidate search %.1fs, scheduling %.1fs, leg build %.1fs (%d dispatches)",
		secs(pipe1.CandidateSearchNanos-pipe0.CandidateSearchNanos),
		secs(pipe1.SchedulingNanos-pipe0.SchedulingNanos),
		secs(pipe1.LegBuildNanos-pipe0.LegBuildNanos),
		pipe1.Dispatches-pipe0.Dispatches))
	hits, misses := rt1.Hits-rt0.Hits, rt1.CHQueries-rt0.CHQueries
	if q := hits + misses; q > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"router cache: %.1f%% hit rate (%d queries), %d point queries",
			100*float64(hits)/float64(q), q, misses))
	}
	return r, nil
}

// AblationProbTradeoff explores the probability-versus-detour trade-off
// the paper defers to future work: bounding each probabilistic leg's
// detour at a multiple of its shortest path trades offline encounters for
// detour time.
func (l *Lab) AblationProbTradeoff() (*Result, error) {
	r := &Result{
		ID: "ablate-probtradeoff", Title: "Probabilistic-leg detour cap vs offline serving (non-peak, mT-Share-pro)",
		Header: []string{"max leg inflation", "served total", "served offline", "detour (min)"},
		Notes: []string{
			"paper §IV-C2: 'how to balance the trade-off between this probability and the total detour costs will be explored in our future work'",
		},
	}
	for _, inflation := range []float64{1.05, 1.2, 1.5, 2.0, 0} {
		m, err := l.RunAvg(Scenario{Scheme: MTSharePro, Window: "nonpeak", HasOffline: true, ProbInflation: inflation})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%.2fx", inflation)
		if inflation == 0 {
			label = "unbounded"
		}
		r.Rows = append(r.Rows, []string{label, fi(m.Served), fi(m.ServedOffline), f2(m.MeanDetourMin)})
	}
	return r, nil
}

// AblationQueue measures the pending-request queue (batched re-dispatch
// of unserved requests until their pickup deadline) against immediate
// rejection, at peak load on a deliberately constrained fleet so
// dispatch failures are common enough for retries to matter.
func (l *Lab) AblationQueue() (*Result, error) {
	taxis := l.World.Scale.DefaultTaxis / 2
	r := &Result{
		ID: "ablate-queue", Title: fmt.Sprintf("Pending-queue re-dispatch vs immediate reject (peak, mT-Share, %d taxis)", taxis),
		Header: []string{"queue depth", "served", "served rate", "from queue", "expired in queue", "mean queue wait (min)"},
		Notes: []string{
			"depth 0 is the paper's immediate-reject behaviour; parked requests retry every tick until served or their pickup deadline passes",
		},
	}
	for _, depth := range []int{0, 8, 16, 32, 64} {
		m, err := l.RunAvg(Scenario{Scheme: MTShare, Window: "peak", Taxis: taxis, QueueDepth: depth})
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{
			fi(depth), fi(m.Served), f3(m.ServedRate()),
			fi(m.ServedFromQueue), fi(m.ExpiredInQueue), f2(m.MeanQueueWaitMin),
		})
	}
	return r, nil
}

// AblationPartitionFilter compares basic-routing legs (cached shortest
// paths, the paper's evaluation setup) against the partition-filtered
// Dijkstra production path: routing cost inflation and the partitions the
// filter keeps. It is the DESIGN.md ablation for the Alg. 2/3 design
// choice.
func (l *Lab) AblationPartitionFilter() (*Result, error) {
	r := &Result{
		ID: "ablate-filter", Title: "Partition-filtered routing vs cached shortest paths",
		Header: []string{"pairs", "mean inflation", "max inflation", "filtered kept (mean partitions)"},
		Notes: []string{
			"the filter prunes the search space at a bounded route-quality cost; the paper's evaluation bypasses it via the all-pairs cache",
		},
	}
	eng, err := l.engine(l.defaults(Scenario{}), nil)
	if err != nil {
		return nil, err
	}
	reqs := l.World.Requests(PeakWindow(), l.World.Scale.Rho, 0)
	var (
		n        int
		sumInfl  float64
		maxInfl  float64
		sumParts int
	)
	for i, req := range reqs {
		if i >= 200 {
			break
		}
		fc, ok := filteredLegCost(eng, req.Origin, req.Dest)
		if !ok {
			continue
		}
		bc, ok := eng.BasicLegCost(req.Origin, req.Dest)
		if !ok || bc <= 0 {
			continue
		}
		infl := fc / bc
		sumInfl += infl
		if infl > maxInfl {
			maxInfl = infl
		}
		sumParts += len(eng.PartitionFilter(req.Origin, req.Dest))
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("experiments: no routable pairs for ablation")
	}
	r.Rows = append(r.Rows, []string{
		fi(n), f2(sumInfl / float64(n)), f2(maxInfl), f1(float64(sumParts) / float64(n)),
	})
	return r, nil
}

// filteredLegCost is the travel cost of Alg. 3's search confined to the
// partitions Alg. 2 keeps for the pair, falling back to the full graph
// when the filtered subgraph disconnects it (possible with one-way
// streets): the paper would discard the instance, the ablation keeps the
// pair so a feasible route is not lost to an indexing artefact.
func filteredLegCost(eng *match.Engine, u, v roadnet.VertexID) (float64, bool) {
	pt := eng.Partitioning()
	allowed := make(map[partition.ID]bool)
	for _, p := range eng.PartitionFilter(u, v) {
		allowed[p] = true
	}
	cost, _, ok := pt.Graph().WeightedShortestPath(u, v, func(x roadnet.VertexID) bool {
		return allowed[pt.PartitionOf(x)]
	}, nil)
	if ok {
		return cost, true
	}
	return eng.BasicLegCost(u, v)
}

// AblationLandmark A/B-tests the landmark lower-bound candidate screen:
// the oracle must prune work (lb pruned > 0) without changing a single
// outcome — identical served and rejected counts with the oracle on and
// off. The experiment *enforces* that parity and errors on any mismatch,
// so a regression in the oracle's admissibility cannot hide in a table.
//
// It drives sim engines directly rather than going through Lab.Run: the
// oracle switch is not part of the scenario memo key.
func (l *Lab) AblationLandmark() (*Result, error) {
	r := &Result{
		ID: "ablate-landmark", Title: "Landmark lower-bound candidate screen vs exact-only evaluation (peak, mT-Share)",
		Header: []string{"oracle", "served", "rejected", "lb evaluated", "lb pruned", "prune ratio"},
		Notes: []string{
			"the oracle screens candidates with an admissible lower bound before exact schedule evaluation; pruning is lossless, so both rows must agree on served/rejected",
		},
	}
	win := PeakWindow()
	start := win.From.Seconds()
	type cell struct {
		served, rejected int
	}
	var baseline *cell
	prunedTotal := int64(0)
	for _, disable := range []bool{false, true} {
		eng, err := l.engine(l.defaults(Scenario{}), func(cfg *match.Config) {
			cfg.DisableLandmarkLB = disable
		})
		if err != nil {
			return nil, err
		}
		scheme := match.NewScheme(eng, false)
		se, err := sim.NewEngine(l.World.G, scheme, sim.Params{})
		if err != nil {
			return nil, err
		}
		se.PlaceTaxis(l.World.Scale.DefaultTaxis, l.World.Scale.Capacity, l.World.Scale.Seed, start)
		reqs := l.World.Requests(win, l.World.Scale.Rho, 0)
		m := se.Run(reqs, start)
		st := eng.Stats()
		c := cell{served: m.Served, rejected: m.Requests - m.Served}
		if baseline == nil {
			baseline = &c
		} else if c != *baseline {
			return nil, fmt.Errorf("experiments: ablate-landmark parity broken: oracle=%v served/rejected %d/%d, expected %d/%d — the lower bound pruned a feasible candidate",
				!disable, c.served, c.rejected, baseline.served, baseline.rejected)
		}
		label := "on"
		ratio := 0.0
		if disable {
			label = "off"
		} else {
			prunedTotal += st.LBPruned
			if st.LBEvaluated > 0 {
				ratio = float64(st.LBPruned) / float64(st.LBEvaluated)
			}
		}
		r.Rows = append(r.Rows, []string{
			label, fi(c.served), fi(c.rejected),
			fi(int(st.LBEvaluated)), fi(int(st.LBPruned)), f3(ratio),
		})
	}
	if prunedTotal == 0 {
		return nil, fmt.Errorf("experiments: ablate-landmark pruned nothing — the screen is dead weight on this workload")
	}
	r.Notes = append(r.Notes, fmt.Sprintf("parity held: both cells served %d and rejected %d", baseline.served, baseline.rejected))
	return r, nil
}

// AblationBatchAssign A/B-tests the global min-cost batch assignment
// against the greedy (deadline, ID) re-dispatch order on the pending
// queue's retry rounds — the paper's peak-hour saturation setting, where
// greedy's early-deadline requests can take the taxi a later request
// needs and leave it to expire. The fleet is halved (the ablate-queue
// setting) and flexibility is raised to rho=1.8 so a parked request's
// pickup window spans several retry rounds — the regime where retry
// batches overlap on freed taxis and the assignment has something to
// decide. The retry cadence is the swept knob: coarser rounds
// accumulate bigger, more contested batches.
//
// The experiment *enforces* the tentpole claims rather than tabling
// them: the global solver must never serve fewer requests than greedy
// on the same stream (hard error in every cell), must serve strictly
// more at the most contested cadence. Vacuousness guards require the solver to have actually run contested
// (non-fallback) assignment rounds and the greedy cells to report zero
// solver activity.
func (l *Lab) AblationBatchAssign() (*Result, error) {
	taxis := l.World.Scale.DefaultTaxis / 2
	const rho = 1.8
	r := &Result{
		ID: "ablate-batch-assign", Title: fmt.Sprintf("Global min-cost batch assignment vs greedy re-dispatch order (peak, mT-Share, %d taxis, rho %.1f)", taxis, rho),
		Header: []string{"retry ticks", "scheme", "served", "from queue", "expired in queue", "mean detour (min)", "assign rounds", "contested", "remainder"},
		Notes: []string{
			"greedy retries the pending queue in (deadline, ID) order; global solves each retry round as one min-cost request-taxi assignment with deterministic (cost, request, taxi) tie-breaks",
			"rho 1.8 widens the pickup window past the retry cadence so parked requests survive into contested rounds — the saturation regime the solver exists for",
		},
	}
	win := PeakWindow()
	start := win.From.Seconds()
	run := func(global bool, retry int) (*sim.Metrics, match.EngineStats, error) {
		eng, err := l.engine(l.defaults(Scenario{}), func(cfg *match.Config) { cfg.BatchAssign = global })
		if err != nil {
			return nil, match.EngineStats{}, err
		}
		scheme := match.NewScheme(eng, false)
		se, err := sim.NewEngine(l.World.G, scheme, sim.Params{QueueDepth: 64, RetryEveryTicks: retry})
		if err != nil {
			return nil, match.EngineStats{}, err
		}
		se.PlaceTaxis(taxis, l.World.Scale.Capacity, l.World.Scale.Seed, start)
		m := se.Run(l.World.Requests(win, rho, 0), start)
		return m, eng.Stats(), nil
	}
	row := func(retry int, scheme string, m *sim.Metrics, st match.EngineStats) {
		r.Rows = append(r.Rows, []string{
			fi(retry), scheme,
			fi(m.Served), fi(m.ServedFromQueue), fi(m.ExpiredInQueue), f2(m.MeanDetourMin),
			fi(int(st.BatchAssignRounds)), fi(int(st.BatchAssignRounds - st.BatchAssignFallbacks)), fi(int(st.BatchAssignRemainder)),
		})
	}
	var solvedRounds int64
	for _, cell := range []struct {
		retry  int
		strict bool // require global strictly ahead of greedy
	}{
		{retry: 2},
		{retry: 4, strict: true},
		{retry: 8},
	} {
		gm, gs, err := run(false, cell.retry)
		if err != nil {
			return nil, err
		}
		if gs.BatchAssignRounds != 0 || gs.BatchAssignOptions != 0 {
			return nil, fmt.Errorf("experiments: ablate-batch-assign: greedy cell ran %d solver rounds — the BatchAssign knob leaks", gs.BatchAssignRounds)
		}
		row(cell.retry, "greedy", gm, gs)
		m, st, err := run(true, cell.retry)
		if err != nil {
			return nil, err
		}
		row(cell.retry, "global", m, st)
		if st.BatchAssignRounds == 0 {
			return nil, fmt.Errorf("experiments: ablate-batch-assign: retry=%d never ran an assignment round — the queue never batched", cell.retry)
		}
		solvedRounds += st.BatchAssignRounds - st.BatchAssignFallbacks
		if m.Served < gm.Served {
			return nil, fmt.Errorf("experiments: ablate-batch-assign: retry=%d: global served %d < greedy %d — the assignment lost requests greedy keeps",
				cell.retry, m.Served, gm.Served)
		}
		if cell.strict && m.Served <= gm.Served {
			return nil, fmt.Errorf("experiments: ablate-batch-assign: retry=%d: global served %d, greedy %d — the solver must win strictly on the saturated cadence",
				cell.retry, m.Served, gm.Served)
		}
		r.Notes = append(r.Notes, fmt.Sprintf("retry every %d ticks: global served %d vs greedy %d (%+d), mean detour %.2f vs %.2f min",
			cell.retry, m.Served, gm.Served, m.Served-gm.Served, m.MeanDetourMin, gm.MeanDetourMin))
	}
	if solvedRounds == 0 {
		return nil, fmt.Errorf("experiments: ablate-batch-assign: every assignment round fell back to greedy — the solver never saw a contested graph")
	}
	return r, nil
}
