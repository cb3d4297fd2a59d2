#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything it
# writes (Go build cache, binary, datasets, traces) under .bench_build/
# at the root of the checkout. BENCHMARK.json names this script as the
# benchmark's command; arguments go to the benchmark unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/go-config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -o "$build/automdt-benchmark" .
exec "$build/automdt-benchmark" -dir "$build" "$@"
