// Command mtshare-server runs mT-Share as a real-time ridesharing
// dispatch service over HTTP. It builds a synthetic city and its mobility
// indexes at startup, then accepts taxis and ride requests via a JSON API
// while a background loop moves taxis along their planned routes at an
// accelerated clock.
//
// Usage:
//
//	mtshare-server [-addr :8080] [-rows 28] [-cols 28] [-taxis 50] [-speedup 20]
//	               [-queue N] [-queue-retry N] [-batch-assign]
//	               [-parallelism N] [-trace-sample N] [-pprof]
//	               [-wal-dir DIR] [-wal-sync-every N] [-wal-sync-interval D]
//	               [-snapshot-every N] [-manual-clock]
//
// Endpoints (all under /v1/; any other path answers 404 not_found):
//
//	POST /v1/taxis     {"lat":..,"lng":..,"capacity":3}        -> {"id":..}
//	GET  /v1/taxis                                             -> fleet status
//	POST /v1/requests  {"pickup":{...},"dropoff":{...},"rho":1.3} -> assignment
//	GET  /v1/requests?id=N                                     -> request status
//	GET  /v1/queue                                             -> pending-queue stats
//	GET  /v1/stats                                             -> engine statistics
//	GET  /v1/slo                                               -> per-route latency quantiles + admission state
//	GET  /v1/metrics                                           -> Prometheus text metrics
//	GET  /v1/durability[?state=1]                              -> WAL stats (and full state)
//	POST /v1/advance   {"d_seconds":4}                         -> one tick (with -manual-clock)
//	GET  /debug/pprof/                                         -> profiling (with -pprof)
//
// With -trace-sample N, one in N dispatches logs its sampled span tree
// (candidate search, scheduling, leg build) to stderr.
//
// With -wal-dir the server is crash-safe: every state-changing event is
// appended to a fsynced write-ahead log, a snapshot is written every
// -snapshot-every ticks, and restarting over the same directory recovers
// the exact pre-crash state. MTSHARE_CRASH_AT_EVENT=N (env) SIGKILLs the
// process right after event N commits — the recovery harness's fault
// injection.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"

	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	rows := flag.Int("rows", 28, "city grid rows")
	cols := flag.Int("cols", 28, "city grid cols")
	taxis := flag.Int("taxis", 50, "initial fleet size")
	capacity := flag.Int("capacity", 3, "taxi capacity")
	speedup := flag.Float64("speedup", 20, "simulation clock speedup over wall clock")
	seed := flag.Int64("seed", 1, "world seed")
	queueDepth := flag.Int("queue", 0, "pending-queue capacity: park unserved requests and retry until their deadline (0 = reject immediately)")
	queueRetry := flag.Int("queue-retry", 1, "retry the pending queue every N simulation ticks (ignored without -queue)")
	batchAssign := flag.Bool("batch-assign", false, "run queue retry rounds as a global min-cost assignment instead of greedy deadline-order commits")
	parallelism := flag.Int("parallelism", 0, "engine worker count per dispatch (0 = default)")
	traceSample := flag.Int("trace-sample", 0, "log the span tree of one in N dispatches (0 disables)")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	walDir := flag.String("wal-dir", "", "write-ahead-log directory: record every event durably and recover state on restart (empty disables)")
	walSyncEvery := flag.Int("wal-sync-every", 64, "fsync the WAL after every N records (group commit; negative = interval/close only)")
	walSyncInterval := flag.Duration("wal-sync-interval", 0, "fsync the WAL at most this long after an unsynced append (0 disables)")
	snapshotEvery := flag.Int("snapshot-every", 0, "write a recovery snapshot every N movement ticks (0 = replay whole WAL on restart)")
	manualClock := flag.Bool("manual-clock", false, "disable the wall-clock ticker; advance time only via POST /v1/advance")
	maxInFlight := flag.Int("max-in-flight", 0, "admission control: max concurrently executing mutating requests; beyond this plus -admission-queue waiters, shed with 429 (0 disables)")
	admissionQueue := flag.Int("admission-queue", 0, "admission control: bounded accept queue in front of -max-in-flight (0 = same as -max-in-flight)")
	flag.Parse()

	cfg := server.Config{
		CityRows: *rows, CityCols: *cols,
		InitialTaxis: *taxis, Capacity: *capacity,
		Speedup: *speedup, Seed: *seed,
		Policy:      replay.Policy{QueueDepth: *queueDepth, BatchAssign: *batchAssign},
		Parallelism: *parallelism,
		ManualClock: *manualClock,
		MaxInFlight: *maxInFlight, AdmissionQueue: *admissionQueue,
		Durability: wal.Options{
			Dir:                *walDir,
			SyncEvery:          *walSyncEvery,
			SyncInterval:       *walSyncInterval,
			SnapshotEveryTicks: *snapshotEvery,
		},
	}
	if *queueDepth > 0 {
		// A retry interval without a queue is an incoherent policy the
		// server refuses, and -queue-retry has a default.
		cfg.RetryEveryTicks = *queueRetry
	}
	if v := os.Getenv("MTSHARE_CRASH_AT_EVENT"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad MTSHARE_CRASH_AT_EVENT %q: %v\n", v, err)
			os.Exit(2)
		}
		cfg.CrashAtEvent = n
	}
	if *traceSample > 0 {
		cfg.TraceSampleEvery = *traceSample
		cfg.TraceHandler = func(sp *obs.Span) {
			log.Printf("dispatch trace:\n%s", sp.Tree())
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv.Start()
	defer srv.Stop()

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	log.Printf("mT-Share dispatch service on %s (city %dx%d, %d taxis, %gx clock)",
		*addr, *rows, *cols, *taxis, *speedup)
	log.Fatal(http.ListenAndServe(*addr, mux))
}
