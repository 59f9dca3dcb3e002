#!/usr/bin/env bash
# Builds the benchmark into bench/out/ and becomes it: `exec` replaces this
# shell, so the run is one foreground process with nothing to orphan.
# The Go build and module caches live under bench/out/ too, so a run reads
# and writes nothing outside its checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
out="$PWD/out"
GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	go build -o "$out/bench" .
cd ..
exec "$out/bench" "$@"
