#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into the checkout-local .bench_build/ (build cache included, so a run
# reads and writes nothing outside the checkout besides the Go toolchain)
# and replaces itself with the binary, passing every argument through.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
go build -C "$here" -buildvcs=false -o "$build/repro-benchmark" .
cd "$root"
exec "$build/repro-benchmark" "$@"
