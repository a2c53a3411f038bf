#!/usr/bin/env bash
# Builds bench/wobench from this checkout's sources and runs it. Run it
# from the root of the repository:
#
#   bash bench/run.sh --workload campaign-ref --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, corpus
# directories, profiles, Chrome traces, the go command's own config and
# telemetry files) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/wobench" ./wobench
exec "$out/wobench" -workdir "$out" "$@"
