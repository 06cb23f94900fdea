#!/bin/sh
# Builds the benchmark from source and runs it from the repository root:
#
#	sh perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# .bench_build in the repository root.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
