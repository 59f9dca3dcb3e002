package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func scheduleBytes(w workload, seed int64) []byte {
	var b bytes.Buffer
	runSchedule(w, seed, 20).write(&b)
	return b.Bytes()
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := scheduleBytes(w, 1), scheduleBytes(w, 1), scheduleBytes(w, 2)
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", w.name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different schedules", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", w.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	for _, w := range workloads {
		s := runSchedule(w, 3, 20)
		if len(s) != rounds {
			t.Fatalf("%s: %d rounds, want %d", w.name, len(s), rounds)
		}
		inDisc, rides := 0, 0
		for k, rd := range s {
			var last int64
			for _, o := range rd.open {
				if o.at.Nanoseconds() < last {
					t.Fatalf("%s: open phase %d not in time order", w.name, k)
				}
				last = o.at.Nanoseconds()
			}
			for _, o := range append(append([]op(nil), rd.open...), rd.drain...) {
				if o.kind != opRide {
					continue
				}
				rides++
				for _, x := range []float64{o.px, o.py, o.dx, o.dy} {
					if x < 0 || x > 1 {
						t.Fatalf("%s: coordinate %v outside the box", w.name, x)
					}
				}
				ox, oy := math.Abs(o.dx-o.px), math.Abs(o.dy-o.py)
				if ox > maxOffset+1e-9 || oy > maxOffset+1e-9 || ox+oy < minManhattan-1e-9 {
					t.Fatalf("%s: dropoff offset (%v, %v) breaks the rule", w.name, ox, oy)
				}
				if math.Hypot(o.px-hotX, o.py-hotY) <= hotRadius {
					inDisc++
				}
			}
			if len(rd.drain) != 0 {
				t.Errorf("%s: round %d of the end-to-end run has a drain", w.name, k)
			}
			// Each round reports a p50 per kind of op (see supported).
			for kind := opRide; kind <= opTick; kind++ {
				if n := count(rd.open, kind); !supported(n, 0.5) {
					t.Errorf("%s: open phase %d has %d %s samples, too few for a p50", w.name, k, n, opNames[kind])
				}
			}
		}
		share := float64(inDisc) / float64(rides)
		if w.hotspot && (share < 0.65 || share > 0.8) {
			t.Errorf("%s: %.2f of pickups in the hot disc, want about %.2f", w.name, share, hotShare)
		}
		if !w.hotspot && share > 0.1 {
			t.Errorf("%s: %.2f of pickups in the hot disc of a uniform workload", w.name, share)
		}
		// The traced run reports pooled tail percentiles of one open phase.
		traced := tracedSchedule(w, 3, 20)[0]
		if got, want := count(traced.drain, opRide), int(w.drainRate*20*tracedDrainShare); got != want {
			t.Errorf("%s: traced drain has %d rides, want %d", w.name, got, want)
		}
		open := traced.open
		if n := count(open, opRide); !supported(n, 0.99) {
			t.Errorf("%s: %d ride samples cannot carry the traced run's p99", w.name, n)
		}
		for _, kind := range []opKind{opRead, opTick} {
			if n := count(open, kind); !supported(n, 0.95) {
				t.Errorf("%s: %d %s samples cannot carry the traced run's p95", w.name, n, opNames[kind])
			}
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.501, 51}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {200, 0.95, true}, {199, 0.95, false},
		{20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	// request(0..100) > roundtrip(10..100) > handler(0..60, another pass)
	//   > {cost(0..5), dispatch(5..45), commit(45..50)}
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.roundtrip", Start: 10, End: 100},
		{ID: 3, Parent: 2, Name: "server.handler", Start: 1000, End: 1060},
		{ID: 4, Parent: 3, Name: "roadnet.cost", Start: 2000, End: 2005},
		{ID: 5, Parent: 3, Name: "match.dispatch", Start: 2005, End: 2045},
		{ID: 6, Parent: 3, Name: "match.commit", Start: 2045, End: 2050},
	}
	want := map[int]int64{1: 10, 2: 30, 3: 10, 4: 5, 5: 40, 6: 5}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	var total int64
	for _, v := range got {
		total += v
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
	if us := selfByName(spans)["match.dispatch"]; len(us) != 1 || us[0] != 0.04 {
		t.Errorf("selfByName(match.dispatch) = %v, want [0.04] us", us)
	}
}

const scrapeFixture = `# TYPE mtshare_match_assignments_total counter
mtshare_match_assignments_total 17

# TYPE mtshare_roadnet_cache_memory_bytes gauge
mtshare_roadnet_cache_memory_bytes 1.289992e+06
# TYPE mtshare_server_http_seconds histogram
mtshare_server_http_seconds_bucket{route="requests",le="0.001"} 40
mtshare_server_http_seconds_bucket{route="requests",le="+Inf"} 50
mtshare_server_http_seconds_sum{route="requests"} 0.03
mtshare_server_http_seconds_count{route="requests"} 50
mtshare_odd{note="a b"} 3
`

func TestParseScrape(t *testing.T) {
	s, err := parseScrape(strings.NewReader(scrapeFixture))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"mtshare_match_assignments_total":                                17,
		"mtshare_roadnet_cache_memory_bytes":                             1289992,
		`mtshare_server_http_seconds_bucket{route="requests",le="+Inf"}`: 50,
		`mtshare_server_http_seconds_count{route="requests"}`:            50,
		`mtshare_odd{note="a b"}`:                                        3,
	} {
		if got, ok := s[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if len(s) != 7 {
		t.Errorf("parsed %d series, want 7", len(s))
	}
	if got := s.histMean("mtshare_server_http_seconds", `{route="requests"}`); math.Abs(got-0.0006) > 1e-12 {
		t.Errorf("histMean = %v, want 0.0006", got)
	}
	if got := s.histMean("mtshare_absent", ""); got != 0 {
		t.Errorf("histMean of an absent family = %v, want 0", got)
	}
	later := scrape{"mtshare_match_assignments_total": 30, "new": 2}
	d := later.sub(s)
	if d["mtshare_match_assignments_total"] != 13 || d["new"] != 2 {
		t.Errorf("sub = %v", d)
	}
	if _, err := parseScrape(strings.NewReader("name notanumber\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

// TestDeclarationIsBenchmarkJSON keeps BENCHMARK.json equal to what the
// program declares (regenerate it with `bench -declare`), and holds the
// declaration to the contract's limits on names, units and bounds.
func TestDeclarationIsBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(onDisk), declaration()) {
		t.Error("BENCHMARK.json differs from `bench -declare`")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		checkName(w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		checkName(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("unit %q of %s is not a unit", d.unit, d.name)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
}

func TestResultHoldsExactlyTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a", "ms", "lower", 0.1}, {"b", "s", "lower", 0.1}}
	var c checks
	r := newResult(defs, map[string]float64{"a": 1, "b": 2}, &c)
	if !c.ok() || len(r.Metrics) != 2 || r.Metrics["b"] != (metric{2, "s"}) {
		t.Errorf("complete values: checks %v, metrics %v", c.failed, r.Metrics)
	}
	c = checks{}
	newResult(defs, map[string]float64{"a": 1}, &c)
	if c.ok() {
		t.Error("a declared metric that was not measured passed")
	}
	c = checks{}
	newResult(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, &c)
	if c.ok() {
		t.Error("a measured metric that was not declared passed")
	}
}

func TestSameStateToleratesOnlyFloatRounding(t *testing.T) {
	live := `{"taxis":[{"id":1,"vec":{"lat":30.6654552648935,"ok":true}}],"name":"a","n":null}`
	for _, c := range []struct {
		name, other string
		want        bool
	}{
		{"identical", live, true},
		{"one ulp off", `{"taxis":[{"id":1,"vec":{"lat":30.665455264893495,"ok":true}}],"name":"a","n":null}`, true},
		{"key order", `{"n":null,"name":"a","taxis":[{"vec":{"ok":true,"lat":30.6654552648935},"id":1}]}`, true},
		{"a different number", `{"taxis":[{"id":2,"vec":{"lat":30.6654552648935,"ok":true}}],"name":"a","n":null}`, false},
		{"a different string", `{"taxis":[{"id":1,"vec":{"lat":30.6654552648935,"ok":true}}],"name":"b","n":null}`, false},
		{"a missing element", `{"taxis":[],"name":"a","n":null}`, false},
		{"an extra key", `{"taxis":[{"id":1,"vec":{"lat":30.6654552648935,"ok":true}}],"name":"a","n":null,"x":1}`, false},
		{"a different type", `{"taxis":[{"id":1,"vec":{"lat":"30.6654552648935","ok":true}}],"name":"a","n":null}`, false},
	} {
		got, err := sameState([]byte(live), []byte(c.other))
		if err != nil || got != c.want {
			t.Errorf("%s: sameState = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := sameState([]byte(live), []byte("{")); err == nil {
		t.Error("a truncated document compared without error")
	}
}

// TestRunsEndToEnd drives both kinds of run against a city small enough
// to build in milliseconds. The sample-count checks cannot pass on so
// short a run; everything else — the audits against the server's
// counters, recovery, the onion passes agreeing — must.
func TestRunsEndToEnd(t *testing.T) {
	tiny := workload{name: "tiny", n: 14, taxis: 20, rate: 100, drainRate: 500, durable: true, queueDepth: 64}
	for _, traced := range []bool{false, true} {
		dir := t.TempDir()
		r := &run{ctx: context.Background(), w: tiny, sched: runSchedule(tiny, 1, 3), scratch: dir}
		var (
			values map[string]float64
			all    tally
			err    error
			defs   = endToEnd
		)
		if traced {
			defs = perLayer
			r.sched = tracedSchedule(tiny, 1, 3)
			values, all, err = r.tracedRun(dir + "/trace.json")
		} else {
			values, all, err = r.endToEndRun()
		}
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		newResult(defs, values, &r.checks)
		// On a city this small a ride's endpoints can snap to one vertex
		// (a 400) and the short queue fills (a 429); neither is a fault.
		if all.attempted == 0 || all.transport != 0 {
			t.Errorf("traced=%v: tally %+v", traced, all)
		}
		for _, f := range r.checks.failed {
			if strings.Contains(f, "samples beyond") || strings.Contains(f, "setup parts") {
				continue // timing checks that need a full-length run
			}
			t.Errorf("traced=%v: check failed: %s", traced, f)
		}
		if traced {
			if _, err := os.Stat(dir + "/trace.json"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		}
	}
}
