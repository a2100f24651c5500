#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
# Run from the root of the repository:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, Go's build cache included.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --root "$root" "$@"
