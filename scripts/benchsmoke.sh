#!/usr/bin/env bash
# benchsmoke.sh — run the repo benchmark the way the driver will, on the
# tree the driver will see, before the PR leaves the machine.
#
# Usage: scripts/benchsmoke.sh [ref]        (default HEAD)
#
# A PR may not edit bench/, so anything bench/ compiles against or checks
# (signatures, metric families, set-up order) can be broken from outside it
# and show up only as `run_failed` after the PR is submitted. This script
# exports the *committed* tree of <ref> (git archive — a file that was never
# `git add`ed is missing here exactly as it will be missing there) into
# $SMOKE_DIR (default /root/scratch/benchsmoke) and, in that copy:
#
#   1. (cd bench && go vet ./... && go test ./...)
#   2. bash bench/run.sh                          all workloads, default
#      seconds: shorter runs fail the sample-count self-checks
#   3. bash bench/run.sh --workload <w> --trace 1 for each workload
#
# It exits non-zero unless every run's last stdout line begins
# {"correct":true and carries "failed":0. ~6 min on the 2-vCPU box. A run can
# fail its own "generator lag p99" or "setup parts sum" check on a host
# stall; those are validity checks — the failing line is printed, rerun.
set -euo pipefail

ref="${1:-HEAD}"
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
dir="${SMOKE_DIR:-/root/scratch/benchsmoke}"
workloads="$(awk -F'"' '/"workloads"/ { inW = 1 } /"end_to_end"/ { inW = 0 } inW && /"name"/ { print $4 }' "$root/BENCHMARK.json")"

rm -rf "$dir"
mkdir -p "$dir"
git -C "$root" archive "$ref" | tar -x -C "$dir"
cd "$dir"

echo "== bench module: vet + unit tests ($ref) ==" >&2
(cd bench && go vet ./... && go test ./...)

failed=0
check() { # label logfile -> verifies the run's last line
    local last
    last="$(tail -n 1 "$2")"
    case "$last" in
    '{"correct":true'*'"failed":0,'*) echo "ok    $1" >&2 ;;
    *)
        echo "FAIL  $1: ${last:0:160}" >&2
        grep -E '^ *FAILED ' "$2" >&2 || true
        failed=1
        ;;
    esac
}

echo "== end-to-end: every workload, --trace 0 ==" >&2
bash bench/run.sh >"$dir/all.log" 2>&1 || true
# One JSON line per workload; every one of them must pass.
n=0
while IFS= read -r line; do
    n=$((n + 1))
    printf '%s\n' "$line" >"$dir/all.$n.json"
    check "run.sh (result $n)" "$dir/all.$n.json"
done < <(grep '^{"correct"' "$dir/all.log")
want="$(printf '%s\n' $workloads | wc -l)"
if [ "$n" -ne "$want" ]; then
    echo "FAIL  run.sh printed $n results for $want workloads (see $dir/all.log)" >&2
    failed=1
fi
check "run.sh (last line)" "$dir/all.log"

for w in $workloads; do
    echo "== traced: $w ==" >&2
    bash bench/run.sh --workload "$w" --trace 1 >"$dir/trace.$w.log" 2>&1 || true
    check "run.sh --workload $w --trace 1" "$dir/trace.$w.log"
done

if [ "$failed" -ne 0 ]; then
    echo "benchsmoke: FAILED (logs in $dir)" >&2
    exit 1
fi
echo "benchsmoke: every run correct, no failed operation (logs in $dir)" >&2
