#!/usr/bin/env bash
# Entry point of the benchmark (the command in BENCHMARK.json): builds the
# benchmark from source inside the checkout and runs it. Run it from the
# repository root; every argument goes to the benchmark program.
#
#   bash bench/run.sh --workload tcp_stream_512 --seed 1 --seconds 12 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout:
# the Go build cache, module cache and the toolchain's own counters.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/bench" . >&2
exec "$build/bench" "$@"
