package experiments

import (
	"repro/internal/geo"
	"repro/internal/sim"
)

// sweepFig is one of §V's one-axis figures: a set of schemes run across
// one swept Scenario knob, plotting one or two averaged metrics.
type sweepFig struct {
	id, title, xLabel, yLabel, note string

	schemes []SchemeName
	// nonpeak selects the weekend 10:00–11:00 window with the offline
	// subset hidden; otherwise the workday peak hour.
	nonpeak bool
	axis    axis
	metrics []metric
}

// axis is a swept Scenario knob: its values at a scale and the field a
// value sets.
type axis struct {
	values func(Scale) []float64
	set    func(*Scenario, float64)
}

// metric is one plotted value of averaged metrics. Its label names the
// series only when a figure plots two metrics.
type metric struct {
	label string
	of    func(*sim.Metrics) float64
}

// The swept knobs of §V.
var (
	byTaxis    = axis{func(s Scale) []float64 { return floats(s.TaxiSweep) }, func(sc *Scenario, v float64) { sc.Taxis = int(v) }}
	byKappa    = axis{func(s Scale) []float64 { return floats(s.KappaSweep) }, func(sc *Scenario, v float64) { sc.Kappa = int(v) }}
	byCapacity = axis{func(s Scale) []float64 { return floats(s.CapSweep) }, func(sc *Scenario, v float64) { sc.Capacity = int(v) }}
	byGamma    = axis{func(s Scale) []float64 { return s.GammaSweep }, func(sc *Scenario, v float64) { sc.Gamma = v }}
	byRho      = axis{func(s Scale) []float64 { return s.RhoSweep }, func(sc *Scenario, v float64) { sc.Rho = v }}
	// byTheta sweeps the direction threshold θ in degrees; the engine
	// takes λ = cos θ.
	byTheta = axis{func(s Scale) []float64 { return s.ThetaSweep }, func(sc *Scenario, v float64) { sc.Lambda = geo.CosOfDegrees(v) }}
)

// The plotted metrics of §V.
func served(m *sim.Metrics) float64     { return float64(m.Served) }
func responseMs(m *sim.Metrics) float64 { return m.MeanResponseMs }
func detourMin(m *sim.Metrics) float64  { return m.MeanDetourMin }
func waitingMin(m *sim.Metrics) float64 { return m.MeanWaitingMin }

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func (f sweepFig) experiment() Experiment {
	return Experiment{ID: f.id, Run: f.run}
}

// run averages every (scheme, knob value) scenario over the scale's
// replicas and plots one series per scheme and metric.
func (f sweepFig) run(l *Lab) (*Result, error) {
	r := &Result{ID: f.id, Title: f.title, XLabel: f.xLabel, YLabel: f.yLabel, Notes: []string{f.note}}
	xs := f.axis.values(l.World.Scale)
	for _, scheme := range f.schemes {
		series := make([]Series, len(f.metrics))
		for i, mt := range f.metrics {
			series[i].Label = f.label(scheme, mt)
		}
		for _, x := range xs {
			sc := Scenario{Scheme: scheme, Window: "peak"}
			if f.nonpeak {
				sc.Window, sc.HasOffline = "nonpeak", true
			}
			f.axis.set(&sc, x)
			m, err := l.RunAvg(sc)
			if err != nil {
				return nil, err
			}
			for i, mt := range f.metrics {
				series[i].X = append(series[i].X, x)
				series[i].Y = append(series[i].Y, mt.of(m))
			}
		}
		r.Series = append(r.Series, series...)
	}
	return r, nil
}

// label names a series: the scheme when the figure plots one metric, the
// metric when it plots one scheme, and both otherwise.
func (f sweepFig) label(scheme SchemeName, mt metric) string {
	switch {
	case len(f.metrics) == 1:
		return string(scheme)
	case len(f.schemes) == 1:
		return mt.label
	}
	return string(scheme) + " " + mt.label
}
