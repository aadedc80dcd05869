#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash layerbench/run.sh --workload scale-500 --seed 1 --seconds 30 --trace 0
#
# Build output (compiler cache and binary) stays in .bench_build at the
# root of the checkout. The build is offline: the benchmark needs only
# the standard library and the simulator module one directory up.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$out/layerbench" .)
exec "$out/layerbench" "$@"
