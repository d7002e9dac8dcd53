#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#   bench/run.sh [-seed N]
#       every workload untraced, then traced; prints the table and writes
#       bench/out/results.json
#   bench/run.sh -compare a.json b.json
#       per-metric deltas of b against a, exit 1 on a breached bound
#
# Everything the build and the run write stays inside the checkout: the
# binary, the Go build cache and temporary files under .bench_build/, the
# results, traces and snapshot files under bench/out/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
bin="$build/anycast-bench"

mkdir -p "$build/tmp" "$build/home"
# Rebuild only when a source file is newer than the binary: the driver
# makes a hundred runs per checkout and the sources do not change between
# them.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	HOME="$build/home" TMPDIR="$build/tmp" GOCACHE="$build/gocache" \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -C "$here" -o "$bin" .
fi

export TMPDIR="$build/tmp"
exec "$bin" -manifest "$root/BENCHMARK.json" -out "$here/out" "$@"
