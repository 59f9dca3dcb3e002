package experiments

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// peakSchemes are the peak-scenario comparison schemes (Figs. 6–9,
// Table III).
var peakSchemes = []SchemeName{NoSharing, TShare, PGreedyDP, MTShare}

// nonpeakSchemes adds mT-Share_pro (Figs. 10–13).
var nonpeakSchemes = []SchemeName{NoSharing, TShare, PGreedyDP, MTShare, MTSharePro}

// Fig5 reproduces the dataset statistics: hourly taxi utilisation for
// workday and weekend (Fig. 5a) and the travel-time distribution
// percentiles (Fig. 5b).
func (l *Lab) Fig5() (*Result, error) {
	r := &Result{
		ID:     "fig5",
		Title:  "Dataset statistics: taxi utilisation by hour and trip travel-time distribution",
		XLabel: "hour of day",
		YLabel: "fleet utilisation (fraction)",
	}
	cost := trace.StraightLineCost(1.3, 15)
	fleetSize := l.World.Scale.DefaultTaxis * 4 // day-wide fleet
	for _, ds := range []*trace.Dataset{l.World.Workday, l.World.Weekend} {
		util := ds.UtilizationByHour(fleetSize, cost, 2*time.Minute)
		s := Series{Label: ds.Day.String()}
		for h := 0; h < 24; h++ {
			s.X = append(s.X, float64(h))
			s.Y = append(s.Y, util[h])
		}
		r.Series = append(r.Series, s)
	}
	times := l.World.Workday.TravelTimeDistribution(cost)
	p50 := trace.Percentile(times, 50)
	p90 := trace.Percentile(times, 90)
	r.Notes = append(r.Notes,
		fmt.Sprintf("travel time p50=%.1f min p90=%.1f min (paper: 15 / 30 min)",
			p50.Minutes(), p90.Minutes()),
		"paper: workday 8-9h utilisation 56%, weekend 10-11h utilisation 41%",
	)
	return r, nil
}

// Table3 reproduces the average candidate-set sizes in the peak scenario.
func (l *Lab) Table3() (*Result, error) {
	r := &Result{
		ID: "tab3", Title: "Average number of candidate taxis (peak)",
		Header: []string{"taxis"},
		Notes:  []string{"paper ordering: No-Sharing < T-Share < mT-Share < pGreedyDP"},
	}
	for _, s := range peakSchemes {
		r.Header = append(r.Header, string(s))
	}
	for _, n := range l.World.Scale.TaxiSweep {
		row := []string{fi(n)}
		for _, s := range peakSchemes {
			m, err := l.RunAvg(Scenario{Scheme: s, Window: "peak", Taxis: n})
			if err != nil {
				return nil, err
			}
			row = append(row, f1(m.MeanCandidates))
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Table4 reproduces the index memory-overhead comparison at the largest
// fleet in the peak scenario.
func (l *Lab) Table4() (*Result, error) {
	r := &Result{
		ID: "tab4", Title: "Index memory overhead at the largest fleet (peak)",
		Header: []string{"scheme", "index bytes"},
		Notes: []string{
			"paper: mT-Share's indexes ~39% larger than the grid baselines'; total memory +16%/+41% vs T-Share/pGreedyDP",
			"mT-Share and mT-Share_pro share the same index structures",
		},
	}
	taxis := l.World.Scale.TaxiSweep[len(l.World.Scale.TaxiSweep)-1]
	for _, s := range peakSchemes {
		m, err := l.RunAvg(Scenario{Scheme: s, Window: "peak", Taxis: taxis})
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{string(s), fmt.Sprintf("%d", m.IndexMemoryBytes)})
	}
	return r, nil
}
