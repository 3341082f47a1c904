#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload uniform --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands
# under .bench_build/ in that root; the last line of standard output is
# the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" "$@"
