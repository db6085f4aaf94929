#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Run it from the repository root:
#
#   bash bench/run.sh                      # all five workloads, both phases
#   bash bench/run.sh --workload scan-mix --seed 7 --seconds 10 --trace 0
#
# Everything the build writes — binary, Go build cache — stays inside the
# checkout, under .bench_build/, and traces go to bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
# HOME moves the toolchain's telemetry and config directories in with the
# caches; GOTOOLCHAIN=local and GOPROXY=off keep the build off the network.
env HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	go build -C "$here" -o "$build/bench" .
exec "$build/bench" -out "$here/out" "$@"
