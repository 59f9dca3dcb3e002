// Command bench is the repository's benchmark: it builds
// internal/server.Server in-process, serves its handler on a loopback
// socket, drives it with a seeded open-loop and closed-loop generator,
// checks the outputs against the server's own counters and prints every
// metric by name. See README.md.
//
// The driver's contract is
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is one JSON object. Everything runs
// in this one foreground process; nothing is left behind on any exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// watchdogAfter bounds one workload's run. A run normally takes under
// 40 s; a wedged one is killed rather than left for the caller to find.
const watchdogAfter = 150 * time.Second

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "all", "workload to run: steady, hotspot, durable, backlog or all")
		seed    = flag.Int64("seed", 1, "seed of the request stream")
		seconds = flag.Float64("seconds", runSeconds, "measured time per run, shared equally by its rounds' open phases")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = end-to-end metrics")
		aa      = flag.Bool("aa", false, "run every workload twice and fail if the two runs disagree beyond a bound")
		knee    = flag.Bool("knee", false, "step the steady workload through rising rates and print bench.knee_rps")
		outDir  = flag.String("out", "", "directory for traces and scratch files (default: the binary's directory)")
		declare = flag.Bool("declare", false, "print BENCHMARK.json as this program declares it, and exit")
	)
	flag.Parse()
	if *declare {
		fmt.Println(string(declaration()))
		return 0
	}
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		return 2
	}
	if *outDir == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		*outDir = filepath.Dir(exe)
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	// One scratch directory per process holds every WAL; it is removed on
	// return, on a signal (which cancels ctx and unwinds to here) and by
	// the watchdog.
	scratch := filepath.Join(*outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	printHost(scratch)
	b := bench{ctx: ctx, scratch: scratch, outDir: *outDir, seed: *seed, seconds: *seconds}
	var err error
	switch {
	case *aa:
		err = b.runAA(selected)
	case *knee:
		err = b.runKnee()
	default:
		err = b.runAll(selected, *trace == 1)
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		return 130
	default:
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
}

// bench is one command's settings.
type bench struct {
	ctx     context.Context
	scratch string
	outDir  string
	seed    int64
	seconds float64
}

// errIncorrect is returned when a run finished but failed its own checks.
var errIncorrect = errors.New("self-check failed")

// one runs a single workload under a watchdog and returns its result.
func (b bench) one(w workload, traced bool) (result, error) {
	watchdog := time.AfterFunc(watchdogAfter, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v, giving up\n", w.name, watchdogAfter)
		os.RemoveAll(b.scratch)
		os.Exit(3)
	})
	defer watchdog.Stop()

	// Each run gets a directory of its own for its WALs: a server built
	// over a directory an earlier run left would recover that run's log.
	scratch, err := os.MkdirTemp(b.scratch, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	r := &run{ctx: b.ctx, w: w, scratch: scratch}
	var (
		values map[string]float64
		all    tally
		defs   = endToEnd
	)
	if traced {
		defs = perLayer
		r.sched = tracedSchedule(w, b.seed, b.seconds)
		values, all, err = r.tracedRun(filepath.Join(b.outDir, "trace-"+w.name+".json"))
	} else {
		r.sched = runSchedule(w, b.seed, b.seconds)
		values, all, err = r.endToEndRun()
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	res := newResult(defs, values, &r.checks)
	res.Attempted = all.attempted
	res.Failed = all.attempted - all.ok2xx
	r.checks.require(res.Failed == 0, "no operation failed",
		fmt.Sprintf("%d shed, %d other status, %d transport errors", all.shed, all.other, all.transport))
	res.Correct = r.checks.ok()

	fmt.Printf("workload %s seed %d seconds %g trace %v\n", w.name, b.seed, b.seconds, traced)
	for _, d := range defs {
		fmt.Printf("  %-40s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("checks: %d passed, %d failed\n", r.checks.passed, len(r.checks.failed))
	for _, f := range r.checks.failed {
		fmt.Println("  FAILED", f)
	}
	return res, nil
}

// runAll runs the selected workloads and prints each result as one JSON
// line; with a single workload that line is the last of the output.
func (b bench) runAll(selected []workload, traced bool) error {
	failed := false
	for _, w := range selected {
		res, err := b.one(w, traced)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		failed = failed || !res.Correct
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// runAA runs every selected workload twice on the same code and seed and
// prints, per end-to-end metric, both values, their relative difference
// and the bound, as a Markdown table.
func (b bench) runAA(selected []workload) error {
	disagree := 0
	for _, w := range selected {
		var res [2]result
		for i := range res {
			var err error
			if res[i], err = b.one(w, false); err != nil {
				return err
			}
			if !res[i].Correct {
				return errIncorrect
			}
		}
		fmt.Printf("\n### %s (seed %d, %g s)\n\n", w.name, b.seed, b.seconds)
		fmt.Println("| metric | unit | run A | run B | rel. diff | bound | |")
		fmt.Println("|---|---|---:|---:|---:|---:|---|")
		for _, d := range endToEnd {
			x, y := res[0].Metrics[d.name].Value, res[1].Metrics[d.name].Value
			diff, verdict := relDiff(x, y), "ok"
			if diff > d.bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("| `%s` | %s | %.4f | %.4f | %.1f%% | %.0f%% | %s |\n", d.name, d.unit, x, y, 100*diff, 100*d.bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("A/A: %d metric pairs disagree beyond their bound", disagree)
	}
	return nil
}

// printHost prints the facts a reader needs to compare two runs.
func printHost(dir string) {
	magic, fs := fsType(dir)
	fmt.Printf("host: NumCPU %d, GOMAXPROCS %d, %s, %s/%s, WAL filesystem %s (0x%x)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fs, magic)
}

// fsType names the filesystem holding dir, where the durable workload's
// WAL is written: an fsync on tmpfs costs nothing and says nothing.
func fsType(dir string) (int64, string) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0, "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	magic := int64(st.Type)
	if n, ok := names[magic]; ok {
		return magic, n
	}
	return magic, "other"
}
