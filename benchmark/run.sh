#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the driver's
# arguments, from the root of a checkout:
#
#   bash benchmark/run.sh --workload wire_direct --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# binary and Go's build cache and temp files under .bench_build/, WALs
# and the trace under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/adbench" .
exec "$build/adbench" "$@"
