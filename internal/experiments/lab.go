package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
)

// SchemeName selects a dispatcher for a scenario.
type SchemeName string

// Scheme names.
const (
	NoSharing  SchemeName = "No-Sharing"
	TShare     SchemeName = "T-Share"
	PGreedyDP  SchemeName = "pGreedyDP"
	MTShare    SchemeName = "mT-Share"
	MTSharePro SchemeName = "mT-Share-pro"
)

// Scenario is one fully specified simulation configuration; it doubles as
// the memoisation key, so it must stay comparable.
type Scenario struct {
	Scheme SchemeName
	Window string // "peak" or "nonpeak"
	Taxis  int
	// Replica selects the taxi-placement seed; RunAvg averages over the
	// scale's replica count (the paper repeats every setting ten times).
	Replica int
	// Overridable knobs; zero means the scale default.
	Capacity     int
	Kappa        int
	Gamma        float64
	Rho          float64
	Lambda       float64
	Partitioning string // "" => bipartite
	OfflineFrac  float64
	HasOffline   bool // offline requests present in the workload
	// BaselineCruise grafts probabilistic cruising onto a baseline
	// (Fig. 16's combinatorial schemes).
	BaselineCruise bool
	// ProbInflation caps probabilistic leg detours at this multiple of
	// the shortest path (the ablate-probtradeoff experiment); 0 = off.
	ProbInflation float64
	// QueueDepth enables the pending-request queue (batched re-dispatch
	// of unserved requests, retried every tick) at the given capacity;
	// 0 = immediate reject.
	QueueDepth int
	// hours, when set, replays that many hours of the window's day from
	// 7:00 instead of the window's own hour (Fig. 21's data-volume sweep).
	hours int
}

func (sc Scenario) window() Window {
	w := PeakWindow()
	if sc.Window == "nonpeak" {
		w = NonPeakWindow()
	}
	if sc.hours > 0 {
		w.From, w.To = 7*time.Hour, time.Duration(7+sc.hours)*time.Hour
	}
	return w
}

// Lab runs experiments over one world with memoised scenario results.
type Lab struct {
	World *World

	// TraceEvery samples one in N dispatches of every mT-Share engine the
	// lab builds with a span tree delivered to TraceHandler; 0 disables
	// tracing.
	TraceEvery   int
	TraceHandler func(*obs.Span)

	mu   sync.Mutex
	runs map[Scenario]*sim.Metrics

	// Pipeline observability, accumulated across every mT-Share engine the
	// lab ran (memoised scenarios contribute once).
	pipeMu   sync.Mutex
	pipeline match.EngineStats
	router   roadnet.RouterStats
}

// NewLab builds a lab (and its world) for a scale.
func NewLab(s Scale) (*Lab, error) {
	w, err := BuildWorld(s)
	if err != nil {
		return nil, err
	}
	return &Lab{World: w, runs: make(map[Scenario]*sim.Metrics)}, nil
}

// defaults fills a scenario's zero knobs from the scale.
func (l *Lab) defaults(sc Scenario) Scenario {
	s := l.World.Scale
	if sc.Taxis == 0 {
		sc.Taxis = s.DefaultTaxis
	}
	if sc.Capacity == 0 {
		sc.Capacity = s.Capacity
	}
	if sc.Kappa == 0 {
		sc.Kappa = s.Kappa
	}
	if sc.Gamma == 0 {
		sc.Gamma = s.GammaMeters
	}
	if sc.Rho == 0 {
		sc.Rho = s.Rho
	}
	if sc.Lambda == 0 {
		sc.Lambda = 0.707
	}
	if sc.Partitioning == "" {
		sc.Partitioning = "bipartite"
	}
	if sc.HasOffline && sc.OfflineFrac == 0 {
		sc.OfflineFrac = s.OfflineFrac
	}
	if sc.Window == "" {
		sc.Window = "peak"
	}
	return sc
}

// buildScheme constructs the dispatcher for a scenario.
func (l *Lab) buildScheme(sc Scenario) (dispatch.Scheme, error) {
	switch sc.Scheme {
	case NoSharing, TShare, PGreedyDP:
		router := roadnet.NewRouter(l.World.G, match.DefaultConfig().RouterCacheTrees).
			AttachCH(l.World.CH())
		var inner dispatch.Scheme
		switch sc.Scheme {
		case NoSharing:
			inner = baseline.NewNoSharing(router, sc.Gamma)
		case TShare:
			inner = baseline.NewTShare(router, sc.Gamma)
		default:
			inner = baseline.NewPGreedyDP(router, sc.Gamma)
		}
		if !sc.BaselineCruise {
			return inner, nil
		}
		eng, err := l.engine(sc, nil)
		if err != nil {
			return nil, err
		}
		return &cruisingBaseline{Scheme: inner, engine: eng}, nil
	case MTShare, MTSharePro:
		eng, err := l.engine(sc, func(cfg *match.Config) {
			if l.TraceEvery > 0 {
				cfg.Tracer = obs.NewTracer(l.TraceEvery, l.TraceHandler)
			}
		})
		if err != nil {
			return nil, err
		}
		return match.NewScheme(eng, sc.Scheme == MTSharePro), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", sc.Scheme)
	}
}

// engine builds an mT-Share engine for a defaulted scenario (partitioning,
// γ, λ and probabilistic-leg cap). Every engine of a lab shares the
// world's CH and the partitioning's landmark oracle: both are immutable,
// and preprocessing is the expensive part. tune, when set, adjusts the
// rest of the configuration.
func (l *Lab) engine(sc Scenario, tune func(*match.Config)) (*match.Engine, error) {
	pt, err := l.World.Partitioning(sc.Partitioning, sc.Kappa)
	if err != nil {
		return nil, err
	}
	cfg := match.DefaultConfig()
	cfg.SearchRangeMeters = sc.Gamma
	cfg.Lambda = sc.Lambda
	cfg.ProbMaxLegInflation = sc.ProbInflation
	cfg.CH = l.World.CH()
	cfg.Oracle = l.World.oracle(pt)
	if tune != nil {
		tune(&cfg)
	}
	return match.NewEngine(pt, l.World.Spx, cfg)
}

// Run executes (or recalls) a scenario and returns its metrics.
func (l *Lab) Run(sc Scenario) (*sim.Metrics, error) {
	sc = l.defaults(sc)
	l.mu.Lock()
	if m, ok := l.runs[sc]; ok {
		l.mu.Unlock()
		return m, nil
	}
	l.mu.Unlock()

	scheme, err := l.buildScheme(sc)
	if err != nil {
		return nil, err
	}
	reqs := l.World.Requests(sc.window(), sc.Rho, sc.OfflineFrac)
	eng, err := sim.NewEngine(l.World.G, scheme, sim.Params{QueueDepth: sc.QueueDepth})
	if err != nil {
		return nil, err
	}
	start := sc.window().From.Seconds()
	eng.PlaceTaxis(sc.Taxis, sc.Capacity, l.World.Scale.Seed+int64(sc.Replica)*1009, start)
	m := eng.Run(reqs, start)
	l.collectPipelineStats(scheme)

	l.mu.Lock()
	l.runs[sc] = m
	l.mu.Unlock()
	return m, nil
}

// collectPipelineStats folds a finished scheme's dispatch-pipeline and
// router counters into the lab-wide accumulators.
func (l *Lab) collectPipelineStats(scheme dispatch.Scheme) {
	s, ok := scheme.(interface {
		Stats() match.EngineStats
		Router() *roadnet.Router
	})
	if !ok {
		return
	}
	rs := s.Router().Stats()
	l.pipeMu.Lock()
	l.pipeline.Add(s.Stats())
	l.router.Hits += rs.Hits
	l.router.CHQueries += rs.CHQueries
	l.router.MemoEntries += rs.MemoEntries
	l.router.MemoBytes += rs.MemoBytes
	l.pipeMu.Unlock()
}

// PipelineStats returns the dispatch-pipeline counters and router totals
// accumulated over every mT-Share engine the lab has run (MemoEntries and
// MemoBytes sum over engines; CHMemoryBytes is not populated, the lab
// shares one hierarchy).
func (l *Lab) PipelineStats() (match.EngineStats, roadnet.RouterStats) {
	l.pipeMu.Lock()
	defer l.pipeMu.Unlock()
	return l.pipeline, l.router
}

// RunAvg runs a scenario once per replica (varying taxi placement) and
// returns the metrics averaged across replicas, mirroring the paper's
// repeat-ten-times-and-average protocol. Per-request Records are not
// merged.
func (l *Lab) RunAvg(sc Scenario) (*sim.Metrics, error) {
	n := l.World.Scale.Replicas
	if n <= 1 {
		return l.Run(sc)
	}
	// Replicas are independent simulations; run them concurrently.
	results := make([]*sim.Metrics, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			scr := sc
			scr.Replica = r
			results[r], errs[r] = l.Run(scr)
		}(r)
	}
	wg.Wait()
	var acc *sim.Metrics
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			return nil, errs[r]
		}
		m := results[r]
		if acc == nil {
			cp := *m
			cp.Records = nil
			acc = &cp
			continue
		}
		acc.Served += m.Served
		acc.ServedOnline += m.ServedOnline
		acc.ServedOffline += m.ServedOffline
		acc.Delivered += m.Delivered
		acc.Queued += m.Queued
		acc.ServedFromQueue += m.ServedFromQueue
		acc.ExpiredInQueue += m.ExpiredInQueue
		acc.MeanQueueWaitMin += m.MeanQueueWaitMin
		acc.MeanResponseMs += m.MeanResponseMs
		acc.P95ResponseMs += m.P95ResponseMs
		acc.MeanDetourMin += m.MeanDetourMin
		acc.MeanWaitingMin += m.MeanWaitingMin
		acc.MeanCandidates += m.MeanCandidates
		acc.TotalPaid += m.TotalPaid
		acc.TotalRegularFare += m.TotalRegularFare
		acc.FareSaving += m.FareSaving
		acc.IndexMemoryBytes += m.IndexMemoryBytes
		acc.ExecutionSecs += m.ExecutionSecs
		acc.TaxiMeters += m.TaxiMeters
		acc.PassengerMeters += m.PassengerMeters
		acc.OccupiedFraction += m.OccupiedFraction
		acc.MeanOccupancy += m.MeanOccupancy
	}
	f := float64(n)
	acc.Served = int(float64(acc.Served)/f + 0.5)
	acc.ServedOnline = int(float64(acc.ServedOnline)/f + 0.5)
	acc.ServedOffline = int(float64(acc.ServedOffline)/f + 0.5)
	acc.Delivered = int(float64(acc.Delivered)/f + 0.5)
	acc.Queued = int(float64(acc.Queued)/f + 0.5)
	acc.ServedFromQueue = int(float64(acc.ServedFromQueue)/f + 0.5)
	acc.ExpiredInQueue = int(float64(acc.ExpiredInQueue)/f + 0.5)
	acc.MeanQueueWaitMin /= f
	acc.MeanResponseMs /= f
	acc.P95ResponseMs /= f
	acc.MeanDetourMin /= f
	acc.MeanWaitingMin /= f
	acc.MeanCandidates /= f
	acc.TotalPaid /= f
	acc.TotalRegularFare /= f
	acc.FareSaving /= f
	acc.IndexMemoryBytes = int64(float64(acc.IndexMemoryBytes) / f)
	acc.ExecutionSecs /= f
	acc.TaxiMeters /= f
	acc.PassengerMeters /= f
	acc.OccupiedFraction /= f
	acc.MeanOccupancy /= f
	return acc, nil
}

// cruisingBaseline grafts mT-Share's probabilistic idle cruising onto a
// baseline dispatcher — the paper's Fig. 16 "probabilistic routing +
// T-Share/pGreedyDP" combinations.
type cruisingBaseline struct {
	dispatch.Scheme
	engine *match.Engine
}

// Name marks the combination.
func (c *cruisingBaseline) Name() string { return c.Scheme.Name() + "+prob" }

// PlanIdle cruises the idle taxi toward likely offline demand.
func (c *cruisingBaseline) PlanIdle(t *fleet.Taxi, nowSeconds float64) bool {
	if !t.Empty() || len(t.Route()) > 1 {
		return false
	}
	path, ok := c.engine.CruisePlan(t)
	if !ok {
		return false
	}
	if err := t.SetPlan(nil, [][]roadnet.VertexID{path}); err != nil {
		return false
	}
	c.Scheme.OnTaxiAdvanced(t, nowSeconds)
	return true
}
