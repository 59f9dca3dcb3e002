// Command mtshare-bench regenerates the paper's evaluation artefacts
// (every table and figure of §V plus the repository's ablations) on the
// synthetic substrate and prints them as ASCII reports.
//
// Usage:
//
//	mtshare-bench [-scale quick|full] [-experiment all|fig6|tab3|...]
//
// The quick scale finishes the full suite in minutes; the full scale
// approaches the paper's relative densities and takes correspondingly
// longer. See DESIGN.md for the experiment index and EXPERIMENTS.md for
// the recorded paper-versus-measured comparison.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

func main() { os.Exit(run()) }

// run is the whole command; it returns the exit status so that every
// deferred writer (the report file, the CPU and heap profiles) runs on
// every path, failures included.
func run() int {
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	expID := flag.String("experiment", "all", "experiment id (fig5..fig21, tab3..tab5, ablate-*) or a comma list or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	replicas := flag.Int("replicas", 0, "override placement-seed replicas per setting (0 = scale default)")
	seed := flag.Int64("seed", 0, "override world seed (0 = scale default)")
	outPath := flag.String("o", "", "also write the report to this file")
	geoPath := flag.String("geojson", "", "write the bipartite partitioning as GeoJSON (the paper's Fig. 3b) to this file")
	traceSample := flag.Int("trace-sample", 0, "print the span tree of one in N dispatches to stderr (0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return 0
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleName)
		return 2
	}
	if *replicas > 0 {
		scale.Replicas = *replicas
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	fmt.Fprintf(out, "building %s-scale world (replicas=%d, seed=%d)...\n", scale.Name, scale.Replicas, scale.Seed)
	t0 := time.Now()
	lab, err := experiments.NewLab(scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *traceSample > 0 {
		lab.TraceEvery = *traceSample
		lab.TraceHandler = func(sp *obs.Span) {
			fmt.Fprintf(os.Stderr, "dispatch trace:\n%s", sp.Tree())
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	fmt.Fprintf(out, "world ready in %v: %d vertices, %d edges, peak hour %d trips\n\n",
		time.Since(t0).Round(time.Millisecond),
		lab.World.G.NumVertices(), lab.World.G.NumEdges(),
		len(lab.World.Workday.Between(8*time.Hour, 9*time.Hour)))

	if *geoPath != "" {
		pt, err := lab.World.Partitioning("bipartite", scale.Kappa)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		data, err := pt.GeoJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(*geoPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(out, "wrote Fig. 3(b) partitioning GeoJSON (%d partitions) to %s\n\n",
			pt.NumPartitions(), *geoPath)
	}

	var todo []experiments.Experiment
	if *expID == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			todo = append(todo, e)
		}
	}
	for _, e := range todo {
		t0 := time.Now()
		pipe0, rt0 := lab.PipelineStats()
		res, err := e.Run(lab)
		if res != nil {
			fmt.Fprint(out, res.Render())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(out, "(%s regenerated in %v)\n", e.ID, time.Since(t0).Round(time.Millisecond))
		printPipelineDelta(out, lab, pipe0, rt0)
		fmt.Fprintln(out)
	}
	return 0
}

// printPipelineDelta reports what the dispatch pipeline and router memo
// did during one experiment (fresh simulations only: memoised scenario
// recalls contribute nothing).
func printPipelineDelta(out io.Writer, lab *experiments.Lab, pipe0 match.EngineStats, rt0 roadnet.RouterStats) {
	pipe1, rt1 := lab.PipelineStats()
	dispatches := pipe1.Dispatches - pipe0.Dispatches
	if dispatches == 0 {
		return
	}
	secs := func(a, b int64) float64 { return float64(a-b) / 1e9 }
	fmt.Fprintf(out, "  dispatch stages: candidate search %.2fs, scheduling %.2fs, leg build %.2fs over %d dispatches\n",
		secs(pipe1.CandidateSearchNanos, pipe0.CandidateSearchNanos),
		secs(pipe1.SchedulingNanos, pipe0.SchedulingNanos),
		secs(pipe1.LegBuildNanos, pipe0.LegBuildNanos), dispatches)
	hits, misses := rt1.Hits-rt0.Hits, rt1.CHQueries-rt0.CHQueries
	if q := hits + misses; q > 0 {
		fmt.Fprintf(out, "  router cache: %.1f%% hit rate (%d queries), %d point queries\n",
			100*float64(hits)/float64(q), q, misses)
	}
}
