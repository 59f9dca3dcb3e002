package mtshare

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§V) at the quick experiment scale. One benchmark maps to one
// artefact; run with -v to see the regenerated rows/series:
//
//	go test -bench=. -benchmem -v
//
// The shared Lab memoises scenario runs, so benchmarks that share sweeps
// (e.g. Figs. 6-9 all use the peak fleet sweep) pay for them once.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/experiments"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
	benchLabErr  error
)

func sharedLab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab, benchLabErr = experiments.NewLab(experiments.QuickScale())
	})
	if benchLabErr != nil {
		b.Fatal(benchLabErr)
	}
	return benchLab
}

func benchExperiment(b *testing.B, id string) {
	lab := sharedLab(b)
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var rendered string
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(lab)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) == 0 && len(res.Rows) == 0 {
			b.Fatalf("%s produced no data", id)
		}
		rendered = res.Render()
	}
	if testing.Verbose() {
		b.Log("\n" + rendered)
	}
}

func BenchmarkFig5DatasetStats(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6ServedPeak(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7ResponsePeak(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkTable3Candidates(b *testing.B)        { benchExperiment(b, "tab3") }
func BenchmarkFig8DetourPeak(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9WaitingPeak(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10ServedNonpeak(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11ResponseNonpeak(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12DetourNonpeak(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13WaitingNonpeak(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkTable4Memory(b *testing.B)            { benchExperiment(b, "tab4") }
func BenchmarkFig14aPartitions(b *testing.B)        { benchExperiment(b, "fig14a") }
func BenchmarkFig14bCapacity(b *testing.B)          { benchExperiment(b, "fig14b") }
func BenchmarkTable5Partitioning(b *testing.B)      { benchExperiment(b, "tab5") }
func BenchmarkFig15SearchRange(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkFig16RoutingModes(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17RhoWaiting(b *testing.B)         { benchExperiment(b, "fig17") }
func BenchmarkFig18RhoDetour(b *testing.B)          { benchExperiment(b, "fig18") }
func BenchmarkFig19Payment(b *testing.B)            { benchExperiment(b, "fig19") }
func BenchmarkFig20Lambda(b *testing.B)             { benchExperiment(b, "fig20") }
func BenchmarkFig21Scalability(b *testing.B)        { benchExperiment(b, "fig21") }
func BenchmarkAblationPartitionFilter(b *testing.B) { benchExperiment(b, "ablate-filter") }
func BenchmarkAblationProbTradeoff(b *testing.B)    { benchExperiment(b, "ablate-probtradeoff") }
func BenchmarkVerifyClaims(b *testing.B)            { benchExperiment(b, "verify") }

// BenchmarkDispatchLatency measures the per-request dispatch latency of
// the public API on a warm system — the per-call cost behind the paper's
// response-time figures.
func BenchmarkDispatchLatency(b *testing.B) {
	sys, err := New(Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	min, max := sys.Bounds()
	pt := func(fLat, fLng float64) Point {
		return Point{Lat: min.Lat + fLat*(max.Lat-min.Lat), Lng: min.Lng + fLng*(max.Lng-min.Lng)}
	}
	for i := 0; i < 40; i++ {
		f := 0.1 + 0.8*float64(i)/40
		if _, err := sys.AddTaxi(pt(f, 1-f), 3); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sys.SubmitRequest(ctx, pt(0.3, 0.3), pt(0.8, 0.8), 1.4)
		if err != nil && !errors.Is(err, ErrNoTaxiAvailable) {
			b.Fatal(err)
		}
		b.StopTimer()
		sys.Advance(30) // drain a little so the fleet doesn't saturate
		b.StartTimer()
	}
}
