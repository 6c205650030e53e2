#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash secbench/run.sh --workload session-repeat --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, traces) stay under .bench_build
# at the checkout root. The benchmark is its own module that imports the
# main module through a relative replace, so it fails to build (and exits
# non-zero) when copied without the program next to it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/secbench" build -o "$out/secbench" .
cd "$root"
exec "$out/secbench" "$@"
