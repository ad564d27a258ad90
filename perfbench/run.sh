#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see main.go). Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload tpcc --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the run's data files all stay under
# .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
