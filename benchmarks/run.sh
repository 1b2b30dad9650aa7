#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one workload:
#   bash benchmarks/run.sh --workload kv-point --seed 1 --seconds 23 --trace 0
# Everything the Go toolchain writes (build cache, config, telemetry) is kept
# under .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmarks/go.mod" ]; then
	echo "benchmarks/run.sh: run from the root of a full checkout (go.mod and benchmarks/go.mod needed)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmarks" -o "$build/e2e" ./e2e
exec "$build/e2e" "$@"
