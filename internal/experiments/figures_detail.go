package experiments

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/roadnet"
	"repro/internal/sim"
)

// Fig14a reproduces the impact of the partition count κ on served
// requests (peak, mT-Share).
func (l *Lab) Fig14a() (*Result, error) {
	r := &Result{
		ID: "fig14a", Title: "Impact of partition number kappa on served requests (peak, mT-Share)",
		XLabel: "kappa", YLabel: "served requests",
		Notes: []string{"paper: served requests rise then fall; the sweet spot sits mid-sweep (kappa=150 of 50-250)"},
	}
	s := Series{Label: string(MTShare)}
	for _, k := range l.World.Scale.KappaSweep {
		m, err := l.RunAvg(Scenario{Scheme: MTShare, Window: "peak", Kappa: k})
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, float64(k))
		s.Y = append(s.Y, float64(m.Served))
	}
	r.Series = append(r.Series, s)
	return r, nil
}

// Fig14b reproduces the impact of taxi capacity on served requests (peak,
// mT-Share).
func (l *Lab) Fig14b() (*Result, error) {
	r := &Result{
		ID: "fig14b", Title: "Impact of taxi capacity on served requests (peak, mT-Share)",
		XLabel: "capacity (seats)", YLabel: "served requests",
		Notes: []string{"paper: capacity 6 serves ~12% more than capacity 2"},
	}
	s := Series{Label: string(MTShare)}
	for _, c := range l.World.Scale.CapSweep {
		m, err := l.RunAvg(Scenario{Scheme: MTShare, Window: "peak", Capacity: c})
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, float64(c))
		s.Y = append(s.Y, float64(m.Served))
	}
	r.Series = append(r.Series, s)
	return r, nil
}

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

// Fig15 reproduces the impact of the search range γ on detour and waiting
// time (peak).
func (l *Lab) Fig15() (*Result, error) {
	r := &Result{
		ID: "fig15", Title: "Impact of search range gamma on detour and waiting time (peak)",
		XLabel: "gamma (m)", YLabel: "minutes",
		Notes: []string{"paper: both detour and waiting grow with gamma; T-Share best service quality, mT-Share better than pGreedyDP"},
	}
	for _, scheme := range peakSchemes {
		det := Series{Label: string(scheme) + " detour"}
		wai := Series{Label: string(scheme) + " waiting"}
		for _, g := range l.World.Scale.GammaSweep {
			m, err := l.RunAvg(Scenario{Scheme: scheme, Window: "peak", Gamma: g})
			if err != nil {
				return nil, err
			}
			det.X = append(det.X, g)
			det.Y = append(det.Y, m.MeanDetourMin)
			wai.X = append(wai.X, g)
			wai.Y = append(wai.Y, m.MeanWaitingMin)
		}
		r.Series = append(r.Series, det, wai)
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

// Fig17 reproduces the impact of the flexible factor ρ on waiting time
// (peak, ridesharing schemes).
func (l *Lab) Fig17() (*Result, error) {
	r := &Result{
		ID: "fig17", Title: "Impact of flexible factor rho on waiting time (peak)",
		XLabel: "rho", YLabel: "mean waiting (min)",
		Notes: []string{"paper: waiting grows with rho; T-Share shortest; mT-Share within 1.2 min of pGreedyDP"},
	}
	for _, scheme := range []SchemeName{TShare, PGreedyDP, MTShare} {
		s := Series{Label: string(scheme)}
		for _, rho := range l.World.Scale.RhoSweep {
			m, err := l.RunAvg(Scenario{Scheme: scheme, Window: "peak", Rho: rho})
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, rho)
			s.Y = append(s.Y, m.MeanWaitingMin)
		}
		r.Series = append(r.Series, s)
	}
	return r, nil
}

// Fig18 reproduces the impact of ρ on detour time and served requests
// (peak, mT-Share).
func (l *Lab) Fig18() (*Result, error) {
	r := &Result{
		ID: "fig18", Title: "Impact of rho on detour time and served requests (peak, mT-Share)",
		XLabel: "rho", YLabel: "detour (min) / served",
		Notes: []string{"paper: both grow with rho; beyond rho=1.3 serving gains flatten while detour keeps climbing (+4% served costs +48% detour at 1.4)"},
	}
	det := Series{Label: "detour (min)"}
	srv := Series{Label: "served requests"}
	for _, rho := range l.World.Scale.RhoSweep {
		m, err := l.RunAvg(Scenario{Scheme: MTShare, Window: "peak", Rho: rho})
		if err != nil {
			return nil, err
		}
		det.X = append(det.X, rho)
		det.Y = append(det.Y, m.MeanDetourMin)
		srv.X = append(srv.X, rho)
		srv.Y = append(srv.Y, float64(m.Served))
	}
	r.Series = append(r.Series, det, srv)
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
		inc := 0.0
		if no.DriverIncome > 0 {
			inc = (mt.DriverIncome/no.DriverIncome - 1) * 100
		}
		prof.Y = append(prof.Y, inc)
	}
	r.Series = append(r.Series, fare, prof)
	return r, nil
}

// Fig20 reproduces the impact of the direction threshold θ (λ = cos θ) on
// served requests and response time (peak, mT-Share).
func (l *Lab) Fig20() (*Result, error) {
	r := &Result{
		ID: "fig20", Title: "Impact of max direction difference theta on served requests and response time (peak, mT-Share)",
		XLabel: "theta (deg)", YLabel: "served / response (ms)",
		Notes: []string{"paper: served grows slightly with theta while response time grows steeply; theta=45 balances both"},
	}
	srv := Series{Label: "served requests"}
	rsp := Series{Label: "response (ms)"}
	for _, th := range l.World.Scale.ThetaSweep {
		m, err := l.RunAvg(Scenario{Scheme: MTShare, Window: "peak", Lambda: geo.CosOfDegrees(th)})
		if err != nil {
			return nil, err
		}
		srv.X = append(srv.X, th)
		srv.Y = append(srv.Y, float64(m.Served))
		rsp.X = append(rsp.X, th)
		rsp.Y = append(rsp.Y, m.MeanResponseMs)
	}
	r.Series = append(r.Series, srv, rsp)
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
	hoursSweep := []int{1, 3, 5, 7}
	pipe0, rt0 := l.PipelineStats()
	type variant struct {
		scheme  SchemeName
		window  string
		offline bool
		label   string
	}
	for _, v := range []variant{
		{MTShare, "peak", false, "workday mT-Share"},
		{MTSharePro, "nonpeak", true, "weekend mT-Share-pro"},
	} {
		exec := Series{Label: v.label + " exec (s)"}
		resp := Series{Label: v.label + " resp (ms)"}
		for _, hours := range hoursSweep {
			m, err := l.runHours(v.scheme, v.window, v.offline, hours)
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

// runHours runs a scheme over an extended data window starting at 7:00,
// outside the scenario memoisation (windows differ per call).
func (l *Lab) runHours(scheme SchemeName, window string, offline bool, hours int) (*sim.Metrics, error) {
	sc := l.defaults(Scenario{Scheme: scheme, Window: window, HasOffline: offline})
	sch, err := l.buildScheme(sc)
	if err != nil {
		return nil, err
	}
	win := Window{Day: dayOf(window), From: 7 * time.Hour, To: time.Duration(7+hours) * time.Hour}
	reqs := l.World.Requests(win, sc.Rho, sc.OfflineFrac)
	eng, err := sim.NewEngine(l.World.G, sch, sim.DefaultParams())
	if err != nil {
		return nil, err
	}
	eng.PlaceTaxis(sc.Taxis, sc.Capacity, l.World.Scale.Seed, win.From.Seconds())
	m := eng.Run(reqs, win.From.Seconds())
	l.collectPipelineStats(sch)
	return m, nil
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
	eng, err := l.engine(l.defaults(Scenario{}), 0, nil)
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
// off, at every dispatch parallelism level. The experiment *enforces* that
// parity and errors on any mismatch, so a regression in the oracle's
// admissibility cannot hide in a table.
//
// It drives sim engines directly rather than going through Lab.Run:
// Lab.Parallelism is not part of the scenario memo key, and the sweep
// needs one fresh engine per (parallelism, oracle) cell anyway.
func (l *Lab) AblationLandmark() (*Result, error) {
	r := &Result{
		ID: "ablate-landmark", Title: "Landmark lower-bound candidate screen vs exact-only evaluation (peak, mT-Share)",
		Header: []string{"parallelism", "oracle", "served", "rejected", "lb evaluated", "lb pruned", "prune ratio"},
		Notes: []string{
			"the oracle screens candidates with an admissible lower bound before exact schedule evaluation; pruning is lossless, so every row of one parallelism level must agree on served/rejected",
		},
	}
	win := PeakWindow()
	start := win.From.Seconds()
	type cell struct {
		served, rejected int
	}
	var baseline *cell
	prunedTotal := int64(0)
	for _, par := range []int{1, 2, 4} {
		for _, disable := range []bool{false, true} {
			eng, err := l.engine(l.defaults(Scenario{}), par, func(cfg *match.Config) {
				cfg.DisableLandmarkLB = disable
			})
			if err != nil {
				return nil, err
			}
			scheme := match.NewScheme(eng, false)
			se, err := sim.NewEngine(l.World.G, scheme, sim.DefaultParams())
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
				return nil, fmt.Errorf("experiments: ablate-landmark parity broken: parallelism=%d oracle=%v served/rejected %d/%d, expected %d/%d — the lower bound pruned a feasible candidate",
					par, !disable, c.served, c.rejected, baseline.served, baseline.rejected)
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
				fi(par), label, fi(c.served), fi(c.rejected),
				fi(int(st.LBEvaluated)), fi(int(st.LBPruned)), f3(ratio),
			})
		}
	}
	if prunedTotal == 0 {
		return nil, fmt.Errorf("experiments: ablate-landmark pruned nothing — the screen is dead weight on this workload")
	}
	r.Notes = append(r.Notes, fmt.Sprintf("parity held: every cell served %d and rejected %d", baseline.served, baseline.rejected))
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
// more at the most contested cadence, and its outcomes must be
// bit-identical (per-request records, Float64bits of
// assign/pickup/dropoff) across parallelism 1/2/4.
// Vacuousness guards require the solver to have actually run contested
// (non-fallback) assignment rounds and the greedy cells to report zero
// solver activity.
func (l *Lab) AblationBatchAssign() (*Result, error) {
	taxis := l.World.Scale.DefaultTaxis / 2
	const rho = 1.8
	r := &Result{
		ID: "ablate-batch-assign", Title: fmt.Sprintf("Global min-cost batch assignment vs greedy re-dispatch order (peak, mT-Share, %d taxis, rho %.1f)", taxis, rho),
		Header: []string{"retry ticks", "scheme", "parallelism", "served", "from queue", "expired in queue", "mean detour (min)", "assign rounds", "contested", "remainder"},
		Notes: []string{
			"greedy retries the pending queue in (deadline, ID) order; global solves each retry round as one min-cost request-taxi assignment with deterministic (cost, request, taxi) tie-breaks",
			"rho 1.8 widens the pickup window past the retry cadence so parked requests survive into contested rounds — the saturation regime the solver exists for",
		},
	}
	win := PeakWindow()
	start := win.From.Seconds()
	run := func(global bool, retry, par int) (*sim.Metrics, match.EngineStats, error) {
		eng, err := l.engine(l.defaults(Scenario{}), par, func(cfg *match.Config) { cfg.BatchAssign = global })
		if err != nil {
			return nil, match.EngineStats{}, err
		}
		scheme := match.NewScheme(eng, false)
		params := sim.DefaultParams()
		params.QueueDepth = 64
		params.RetryEveryTicks = retry
		se, err := sim.NewEngine(l.World.G, scheme, params)
		if err != nil {
			return nil, match.EngineStats{}, err
		}
		se.PlaceTaxis(taxis, l.World.Scale.Capacity, l.World.Scale.Seed, start)
		m := se.Run(l.World.Requests(win, rho, 0), start)
		return m, eng.Stats(), nil
	}
	row := func(retry int, scheme string, par int, m *sim.Metrics, st match.EngineStats) {
		r.Rows = append(r.Rows, []string{
			fi(retry), scheme, fi(par),
			fi(m.Served), fi(m.ServedFromQueue), fi(m.ExpiredInQueue), f2(m.MeanDetourMin),
			fi(int(st.BatchAssignRounds)), fi(int(st.BatchAssignRounds - st.BatchAssignFallbacks)), fi(int(st.BatchAssignRemainder)),
		})
	}
	var solvedRounds int64
	for _, cell := range []struct {
		retry  int
		strict bool // require global strictly ahead of greedy
		sweep  bool // gate bit-identity across parallelism cells
	}{
		{retry: 2},
		{retry: 4, strict: true, sweep: true},
		{retry: 8},
	} {
		gm, gs, err := run(false, cell.retry, 1)
		if err != nil {
			return nil, err
		}
		if gs.BatchAssignRounds != 0 || gs.BatchAssignOptions != 0 {
			return nil, fmt.Errorf("experiments: ablate-batch-assign: greedy cell ran %d solver rounds — the BatchAssign knob leaks", gs.BatchAssignRounds)
		}
		row(cell.retry, "greedy", 1, gm, gs)

		parCells := []int{1}
		if cell.sweep {
			parCells = []int{1, 2, 4}
		}
		var (
			baseSigs   []recordSig
			baseM      *sim.Metrics
			baseStats  match.EngineStats
			haveGlobal bool
		)
		for _, par := range parCells {
			m, st, err := run(true, cell.retry, par)
			if err != nil {
				return nil, err
			}
			sigs := workloadSigs(m)
			if !haveGlobal {
				baseSigs, baseM, baseStats, haveGlobal = sigs, m, st, true
			} else {
				if len(sigs) != len(baseSigs) {
					return nil, fmt.Errorf("experiments: ablate-batch-assign parity broken: retry=%d parallelism=%d produced %d records, expected %d",
						cell.retry, par, len(sigs), len(baseSigs))
				}
				for i := range sigs {
					if sigs[i] != baseSigs[i] {
						return nil, fmt.Errorf("experiments: ablate-batch-assign divergence: retry=%d parallelism=%d record %d (request %d) differs — the solver is not deterministic across parallelism",
							cell.retry, par, i, sigs[i].ID)
					}
				}
				if st.BatchAssignRounds != baseStats.BatchAssignRounds || st.BatchAssignFallbacks != baseStats.BatchAssignFallbacks {
					return nil, fmt.Errorf("experiments: ablate-batch-assign divergence: retry=%d parallelism=%d ran %d rounds (%d fallbacks), expected %d (%d)",
						cell.retry, par, st.BatchAssignRounds, st.BatchAssignFallbacks, baseStats.BatchAssignRounds, baseStats.BatchAssignFallbacks)
				}
			}
			row(cell.retry, "global", par, m, st)
		}
		if baseStats.BatchAssignRounds == 0 {
			return nil, fmt.Errorf("experiments: ablate-batch-assign: retry=%d never ran an assignment round — the queue never batched", cell.retry)
		}
		solvedRounds += baseStats.BatchAssignRounds - baseStats.BatchAssignFallbacks
		if baseM.Served < gm.Served {
			return nil, fmt.Errorf("experiments: ablate-batch-assign: retry=%d: global served %d < greedy %d — the assignment lost requests greedy keeps",
				cell.retry, baseM.Served, gm.Served)
		}
		if cell.strict && baseM.Served <= gm.Served {
			return nil, fmt.Errorf("experiments: ablate-batch-assign: retry=%d: global served %d, greedy %d — the solver must win strictly on the saturated cadence",
				cell.retry, baseM.Served, gm.Served)
		}
		r.Notes = append(r.Notes, fmt.Sprintf("retry every %d ticks: global served %d vs greedy %d (%+d), mean detour %.2f vs %.2f min",
			cell.retry, baseM.Served, gm.Served, baseM.Served-gm.Served, baseM.MeanDetourMin, gm.MeanDetourMin))
	}
	if solvedRounds == 0 {
		return nil, fmt.Errorf("experiments: ablate-batch-assign: every assignment round fell back to greedy — the solver never saw a contested graph")
	}
	return r, nil
}
