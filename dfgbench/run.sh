#!/usr/bin/env bash
# Builds the benchmark, dfg-serve and dfg-worker from this checkout, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash dfgbench/run.sh --workload cold-mixed --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the Go
# build cache and configuration, the binaries, each run's work
# directories and the traced run's spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/dfgbench" && go build -o "$out/bin/" . dfg/cmd/dfg-serve dfg/cmd/dfg-worker)
exec "$out/bin/dfgbench" -root "$root" -bin "$out/bin" "$@"
