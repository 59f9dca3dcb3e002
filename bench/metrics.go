package main

import "encoding/json"

// metricDef declares one metric: BENCHMARK.json repeats these lists and a
// unit test keeps the two equal. bound is the share of the parent's
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a rider or operator of the service would see.
// Each timing metric is the median over the run's rounds. The tail
// percentiles, throughput_rps, error_frac and shed_frac of the issue are
// per-layer metrics here (bench.*): on a shared 2-core host a 20 s run
// cannot hold a p95, a p99 or a saturated closed loop steady within any
// bound the contract allows (README, "How steady it is"), and a metric
// that is 0 on every correct run has no relative bound. goodput_frac is
// the gated view of the tail.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"dispatch_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"tick_p50_ms", "ms", "lower", 0.25},
	{"goodput_frac", "ratio", "higher", 0.10},
	{"served_frac", "ratio", "higher", 0.20},
	{"wait_p50_s", "sim-s", "lower", 0.20},
	{"rss_peak_mb", "MB", "lower", 0.20},
}

// perLayer are measured from outside each package: by timing calls into
// its public functions and by reading the server's own GET /v1/metrics
// before and after a phase. A metric that does not apply to a workload
// (WAL counters without a WAL, queue counters without a queue) reads 0.
var perLayer = []metricDef{
	// server: HTTP decode/encode, admission, server.mu.
	{"server.handler_p50_us", "us", "lower", 0},
	{"server.socket_overhead_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.wait_est_ms", "ms", "lower", 0},
	{"server.advance_p50_ms", "ms", "lower", 0},
	{"server.status_get_p50_us", "us", "lower", 0},
	{"server.metrics_get_ms", "ms", "lower", 0},
	{"server.http_mean_us.requests", "us", "lower", 0},
	{"server.http_mean_us.advance", "us", "lower", 0},
	{"server.admission_offered", "count", "higher", 0},
	{"server.admission_admitted", "count", "higher", 0},
	{"server.admission_rejected", "count", "lower", 0},
	// match: candidate search, LB screen, insertion scheduling, commit,
	// pending queue and batch assignment.
	{"match.dispatch_p50_us", "us", "lower", 0},
	{"match.dispatch_p95_us", "us", "lower", 0},
	{"match.commit_us", "us", "lower", 0},
	{"match.candidates_us", "us", "lower", 0},
	{"match.candidates_mean", "count", "lower", 0},
	{"match.batch_round_ms", "ms", "lower", 0},
	{"match.candidate_search_mean_us", "us", "lower", 0},
	{"match.scheduling_mean_us", "us", "lower", 0},
	{"match.leg_build_mean_us", "us", "lower", 0},
	{"match.lb_estimate_mean_us", "us", "lower", 0},
	{"match.commit_mean_us", "us", "lower", 0},
	{"match.candidates_examined_per_dispatch", "count", "lower", 0},
	{"match.lb_prune_ratio", "ratio", "higher", 0},
	{"match.pruned_direction_per_dispatch", "count", "higher", 0},
	{"match.pruned_capacity_per_dispatch", "count", "higher", 0},
	{"match.pruned_reachability_per_dispatch", "count", "higher", 0},
	{"match.queue_enqueued", "count", "lower", 0},
	{"match.queue_retries", "count", "lower", 0},
	{"match.queue_served", "count", "higher", 0},
	{"match.queue_expired", "count", "lower", 0},
	{"match.queue_wait_mean_s", "sim-s", "lower", 0},
	{"match.batch_assign_rounds", "count", "lower", 0},
	{"match.batch_assign_options", "count", "lower", 0},
	{"match.batch_assign_fallbacks", "count", "lower", 0},
	// roadnet: city generation, CH build, router cache and point queries.
	{"roadnet.gen_s", "s", "lower", 0},
	{"roadnet.ch_build_s", "s", "lower", 0},
	{"roadnet.ch_memory_mb", "MB", "lower", 0},
	{"roadnet.ch_shortcuts", "count", "lower", 0},
	{"roadnet.cost_cold_us", "us", "lower", 0},
	{"roadnet.cost_warm_us", "us", "lower", 0},
	{"roadnet.path_us", "us", "lower", 0},
	{"roadnet.ch_cost_us", "us", "lower", 0},
	{"roadnet.cache_hit_frac", "ratio", "higher", 0},
	{"roadnet.cold_queries_per_dispatch", "count", "lower", 0},
	{"roadnet.ch_queries_per_dispatch", "count", "lower", 0},
	{"roadnet.ch_settled_mean", "count", "lower", 0},
	{"roadnet.sssp_mean_us", "us", "lower", 0},
	{"roadnet.cache_memory_mb", "MB", "lower", 0},
	{"roadnet.share_est", "ratio", "lower", 0},
	// partition, index, mobcluster, fleet.
	{"partition.build_s", "s", "lower", 0},
	{"partition.count", "count", "lower", 0},
	{"partition.memory_mb", "MB", "lower", 0},
	{"partition.near_us", "us", "lower", 0},
	{"index.updates_per_tick", "count", "lower", 0},
	{"index.partition_entries", "count", "lower", 0},
	{"mobcluster.compatible_us", "us", "lower", 0},
	{"mobcluster.clusters", "count", "lower", 0},
	{"fleet.advance_us_per_taxi", "us", "lower", 0},
	// wal: direct appends and the durable server's own counters.
	{"wal.append_sync_us", "us", "lower", 0},
	{"wal.append_nosync_us", "us", "lower", 0},
	{"wal.snapshot_write_ms", "ms", "lower", 0},
	{"wal.fsync_mean_us", "us", "lower", 0},
	{"wal.syncs_per_event", "ratio", "lower", 0},
	{"wal.bytes_per_event", "count", "lower", 0},
	{"wal.recover_s", "s", "lower", 0},
	{"wal.fs_magic", "id", "lower", 0},
	// bench: the generator itself.
	{"bench.gen_lag_p99_ms", "ms", "lower", 0},
	{"bench.throughput_rps", "1/s", "higher", 0},
	{"bench.dispatch_p95_ms", "ms", "lower", 0},
	{"bench.dispatch_p99_ms", "ms", "lower", 0},
	{"bench.read_p95_ms", "ms", "lower", 0},
	{"bench.tick_p95_ms", "ms", "lower", 0},
	{"bench.samples.dispatch", "count", "higher", 0},
	{"bench.samples.read", "count", "higher", 0},
	{"bench.samples.tick", "count", "higher", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.error_frac", "ratio", "lower", 0},
	{"bench.shed_frac", "ratio", "lower", 0},
}

// runSeconds is the --seconds the driver passes: the constants in
// workload.go were calibrated for it.
const runSeconds = 20

// declaration is BENCHMARK.json: the command, the workloads and the two
// metric lists, exactly as this program implements them.
func declaration() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	d := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, workloadJSON{w.name, w.why})
	}
	for i := range endToEnd {
		m := &endToEnd[i]
		d.EndToEnd = append(d.EndToEnd, metricJSON{m.name, m.unit, m.better, &m.bound})
	}
	for _, m := range perLayer {
		d.PerLayer = append(d.PerLayer, metricJSON{m.name, m.unit, m.better, nil})
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return b
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult pairs measured values with their declared units. A declared
// metric that was not measured, or a measured one that is not declared,
// is a bug in the benchmark and fails the run's own check.
func newResult(defs []metricDef, values map[string]float64, c *checks) result {
	r := result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		c.require(ok, "metric measured: "+d.name, "")
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		_, ok := r.Metrics[name]
		c.require(ok, "metric declared: "+name, "")
	}
	return r
}
