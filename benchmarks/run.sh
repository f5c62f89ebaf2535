#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything it
# writes — Go's build cache included — stays under .bench_build/ and
# benchmarks/out/ in the checkout. Arguments go to loadgen unchanged.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd benchmarks && go build -o "$build/loadgen" ./loadgen)
exec "$build/loadgen" "$@"
