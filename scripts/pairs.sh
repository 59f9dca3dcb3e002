#!/usr/bin/env bash
# pairs.sh — parent-vs-change comparison on the repo benchmark, the protocol
# every performance claim in EXPERIMENTS.md rests on, as one command.
#
# Usage: scripts/pairs.sh <parent-ref> <workload> <n>
#
# Exports <parent-ref> (git archive) and the change (the working tree: every
# tracked or untracked-but-not-ignored file, so it works before the commit
# exists) into two directories under $PAIRS_DIR (default /root/scratch/pairs),
# then runs `bench/run.sh --workload <workload> --trace 0` n times on each
# side. Pair i runs both sides at seed $PAIRS_SEED0+i (default 101: seeds the
# change was not developed on) and alternates which side goes first, so a
# slow minute of the host lands on both. Each tree builds its own binary
# from its own source, exactly as the driver does.
#
# Prints, per end-to-end metric of BENCHMARK.json: median [Q1, Q3] for each
# side, the change of the median, and in how many pairs the change was
# better / tied. A gain is claimable when wins >= 0.9 * pairs and the medians
# differ by more than the parent's Q3-Q1 (choosing-metrics, section 8). The
# last stdout line is the same table as one JSON object (BENCH_<pr>.json is
# made of these). Raw per-run results stay in $PAIRS_DIR/<workload>.*.jsonl.
#
# Pairs only run --trace 0. Before submitting, also run scripts/benchsmoke.sh:
# it runs bench/'s own tests, every workload and every traced run on the
# committed tree, which is where a `run_failed` shows first.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 <parent-ref> <workload> <n>" >&2
    exit 2
fi
ref="$1" workload="$2" n="$3"
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
dir="${PAIRS_DIR:-/root/scratch/pairs}"
seed0="${PAIRS_SEED0:-101}"
seconds="$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$root/BENCHMARK.json")"

rm -rf "$dir/parent" "$dir/change"
mkdir -p "$dir/parent" "$dir/change"
git -C "$root" archive "$ref" | tar -x -C "$dir/parent"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    tar --null -T - -c) | tar -x -C "$dir/change"

run_side() { # side seed -> appends the run's JSON line to the side's log
    local line
    line="$(bash "$dir/$1/bench/run.sh" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)"
    case "$line" in
    '{"correct":true'*) echo "$line" >>"$dir/$workload.$1.jsonl" ;;
    *) echo "pairs.sh: $1 run at seed $2 did not pass its own checks: $line" >&2; exit 1 ;;
    esac
}

: >"$dir/$workload.parent.jsonl"
: >"$dir/$workload.change.jsonl"
for i in $(seq 1 "$n"); do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do run_side "$side" "$seed"; done
    echo "pair $i/$n (seed $seed, $order) done" >&2
done

host="$(uname -sr), $(nproc) vCPU, $(awk -F': ' '/model name/ { print $2; exit }' /proc/cpuinfo), $(go version | awk '{ print $3 }')"

awk -v workload="$workload" -v ref="$ref" -v host="$host" -v seed0="$seed0" -v seconds="$seconds" '
function quantile(a, n, p,    h, lo) { # a[1..n] sorted; linear interpolation
    h = (n - 1) * p + 1; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function summarise(side, m, out,    i, j, t, n, a) {
    n = runs[side]
    for (i = 1; i <= n; i++) a[i] = val[side, m, i]
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    out["q1"] = quantile(a, n, 0.25); out["med"] = quantile(a, n, 0.5); out["q3"] = quantile(a, n, 0.75)
}
FILENAME ~ /BENCHMARK.json$/ {
    if ($0 ~ /"end_to_end"/) inE2E = 1
    if ($0 ~ /"per_layer"/) inE2E = 0
    if (inE2E && match($0, /"name": "[a-z0-9_]+"/)) { name = substr($0, RSTART + 9, RLENGTH - 10); order[++nm] = name }
    if (inE2E && match($0, /"better": "[a-z]+"/)) better[name] = substr($0, RSTART + 11, RLENGTH - 12)
    next
}
{
    side = (FILENAME ~ /parent\.jsonl$/) ? "parent" : "change"
    r = ++runs[side]; line = $0
    while (match(line, /"[a-z0-9_]+":\{"value":[-+0-9.eE]+/)) {
        s = substr(line, RSTART + 1, RLENGTH - 1); split(s, kv, /":\{"value":/)
        val[side, kv[1], r] = kv[2] + 0
        line = substr(line, RSTART + RLENGTH)
    }
}
END {
    n = runs["parent"]
    printf "%s: %d pairs vs %s, seeds %d..%d, %d s runs\n%s\n", workload, n, ref, seed0 + 1, seed0 + n, seconds, host
    printf "%-16s %-30s %-30s %8s  %s\n", "metric", "parent median [Q1, Q3]", "change median [Q1, Q3]", "change", "wins/ties/pairs"
    json = sprintf("{\"workload\":\"%s\",\"parent\":\"%s\",\"pairs\":%d,\"first_seed\":%d,\"run_seconds\":%d,\"host\":\"%s\",\"metrics\":{", workload, ref, n, seed0 + 1, seconds, host)
    for (k = 1; k <= nm; k++) {
        m = order[k]; wins = ties = 0
        for (i = 1; i <= n; i++) {
            p = val["parent", m, i]; c = val["change", m, i]
            if (c == p) ties++
            else if ((better[m] == "lower") == (c < p)) wins++
        }
        summarise("parent", m, P); summarise("change", m, C)
        pct = P["med"] != 0 ? sprintf("%+.1f%%", 100 * (C["med"] - P["med"]) / P["med"]) : "n/a"
        printf "%-16s %-30s %-30s %8s  %d/%d/%d\n", m, sprintf("%.4g [%.4g, %.4g]", P["med"], P["q1"], P["q3"]), sprintf("%.4g [%.4g, %.4g]", C["med"], C["q1"], C["q3"]), pct, wins, ties, n
        json = json sprintf("%s\"%s\":{\"better\":\"%s\",\"parent\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"change\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"wins\":%d,\"ties\":%d}", k > 1 ? "," : "", m, better[m], P["med"], P["q1"], P["q3"], C["med"], C["q1"], C["q3"], wins, ties)
    }
    print json "}}"
}' "$root/BENCHMARK.json" "$dir/$workload.parent.jsonl" "$dir/$workload.change.jsonl"
