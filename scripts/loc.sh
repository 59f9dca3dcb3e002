#!/usr/bin/env bash
# loc.sh — non-test Go line counts, the way ROADMAP.md counts code.
#
# Usage: scripts/loc.sh [repo-dir]
#
# Counts every line (wc -l: blank lines and comments included) of the
# root module's .go files that are not _test.go files, with bench/ (its
# own module) excluded. Prints one line per package directory, largest
# first, then the module total.
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"
files="$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | sort)"
[ -n "$files" ] || { echo "loc.sh: no Go files under $(pwd)" >&2; exit 1; }
# shellcheck disable=SC2086
wc -l $files | awk '
	$2 == "total" { next }
	{ dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir); if (dir == "") dir = "."; n[dir] += $1; total += $1 }
	END {
		for (d in n) printf "%7d  %s\n", n[d], d | "sort -rn"
		close("sort -rn")
		printf "%7d  total (non-test Go, root module, bench/ excluded)\n", total
	}'
