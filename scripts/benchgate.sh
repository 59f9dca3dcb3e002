#!/usr/bin/env bash
# benchgate.sh — compare fresh benchmark runs against the committed
# baselines and gate on gross regressions.
#
# Usage: scripts/benchgate.sh [baseline.txt] [current.txt]
#
# With no arguments, runs both benchmark families itself and compares
# each against its committed baseline:
#
#   - Dispatch benchmarks (./internal/match, -bench=Dispatch) against
#     testdata/bench/dispatch_baseline.txt — the end-to-end dispatch hot
#     path.
#   - Routing-kernel benchmarks (./internal/roadnet, -bench='CH|SSSP$')
#     against testdata/bench/roadnet_ch_baseline.txt — CH preprocessing
#     (BenchmarkCHBuild), Chengdu-scale (~214k vertex) routing queries
#     against plain Dijkstra (BenchmarkChengduCHRouting), and the two
#     kernels the repo benchmark's ledger names, at its 56x56 size (BenchmarkSSSP,
#     BenchmarkCHCost). The first roadnet run pays the one-time
#     ~1-minute hierarchy build; -count reuses it.
#   - WAL benchmarks (./internal/wal, -bench=WAL) against
#     testdata/bench/wal_baseline.txt — append throughput across the
#     group-commit spectrum (fsync every record / every 64 / never) and
#     the snapshot write/restore paths. fsync latency is the most
#     machine-sensitive number in the suite, which is exactly why the
#     geomean gate (not per-benchmark deltas) decides.
#
# With two arguments, compares just that pair (for by-hand use).
#
# Policy: per-benchmark slowdowns are WARNINGS only — absolute ns/op is
# machine-dependent, and the committed baselines were recorded on one
# specific box. A gate fails (exit 1) only when the geometric mean of
# the per-benchmark time ratios exceeds 1.30 — a uniform >30% slowdown
# is an engine regression, not machine noise.
#
# If benchstat is on PATH, its statistical summary is printed too
# (informational; the awk gate below is what decides pass/fail).
set -u -o pipefail

compare() {
    local baseline="$1" current="$2"

    if command -v benchstat >/dev/null 2>&1; then
        echo
        echo "== benchstat (informational) =="
        benchstat "$baseline" "$current" || true
        echo
    fi

    # Mean ns/op per benchmark from `go test -bench` output lines:
    #   BenchmarkName-8   <iters>  <ns> ns/op  [extra metrics...]
    awk -v threshold=1.30 '
    function meanof(sum, n) { return n > 0 ? sum / n : 0 }
    FNR == 1 { file++ }
    /^Benchmark/ && / ns\/op/ {
        name = $1
        sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix so runs from different core counts compare
        for (i = 2; i <= NF; i++) {
            if ($(i+1) == "ns/op") { ns = $i; break }
        }
        if (file == 1) { bsum[name] += ns; bn[name]++ }
        else           { csum[name] += ns; cn[name]++; seen[name] = 1 }
    }
    END {
        worst = 0; prod = 1; k = 0
        for (name in seen) {
            if (!(name in bsum)) {
                printf "NEW      %-50s %12.0f ns/op (no baseline)\n", name, meanof(csum[name], cn[name])
                continue
            }
            b = meanof(bsum[name], bn[name]); c = meanof(csum[name], cn[name])
            r = b > 0 ? c / b : 1
            prod *= r; k++
            flag = (r > threshold) ? "WARN>30%" : ((r > 1.05) ? "slower" : "ok")
            printf "%-8s %-50s %12.0f -> %12.0f ns/op  (x%.2f)\n", flag, name, b, c, r
            if (r > worst) worst = r
        }
        if (k == 0) { print "benchgate: no overlapping benchmarks — nothing to compare" > "/dev/stderr"; exit 2 }
        geomean = exp(log(prod) / k)
        printf "\nbenchgate: geomean ratio x%.3f over %d benchmarks (worst x%.2f, gate x%.2f)\n", geomean, k, worst, threshold
        if (geomean > threshold) {
            print "benchgate: FAIL — uniform slowdown beyond 30%; investigate before merging" > "/dev/stderr"
            exit 1
        }
        print "benchgate: OK (per-benchmark slowdowns above are warnings only)"
    }' "$baseline" "$current"
}

gate() {
    local baseline="$1" pkg="$2" pattern="$3" regen="$4"
    if [[ ! -f "$baseline" ]]; then
        echo "benchgate: baseline $baseline missing" >&2
        echo "regenerate with: $regen" >&2
        exit 2
    fi
    local current rc
    current="$(mktemp)"
    echo "benchgate: running $pkg -bench=$pattern (count=5)..." >&2
    go test -run '^$' -bench="$pattern" -count=5 -benchtime=50x -timeout 30m "$pkg" | tee "$current"
    compare "$baseline" "$current"
    rc=$?
    rm -f "$current"
    return $rc
}

if [[ $# -ge 2 ]]; then
    compare "$1" "$2"
    exit $?
fi

rc=0
gate "${1:-testdata/bench/dispatch_baseline.txt}" ./internal/match/ Dispatch \
    "go test -run '^\$' -bench=Dispatch -count=5 -benchtime=50x ./internal/match/ > testdata/bench/dispatch_baseline.txt" || rc=1
gate testdata/bench/roadnet_ch_baseline.txt ./internal/roadnet/ 'CH|SSSP$' \
    "go test -run '^\$' -bench='CH|SSSP\$' -count=5 -benchtime=50x -timeout 30m ./internal/roadnet/ > testdata/bench/roadnet_ch_baseline.txt" || rc=1
gate testdata/bench/wal_baseline.txt ./internal/wal/ WAL \
    "go test -run '^\$' -bench=WAL -count=5 -benchtime=50x ./internal/wal/ > testdata/bench/wal_baseline.txt" || rc=1
exit $rc
