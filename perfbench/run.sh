#!/usr/bin/env bash
# Builds the repository benchmark from the sources in this checkout and
# runs it. Run from the checkout root:
#
#	bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the span dumps stay under
# .bench_build in the checkout. The build needs the repository module one
# directory up; without it the build fails and the script exits non-zero
# before the benchmark prints anything.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
