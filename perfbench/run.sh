#!/usr/bin/env bash
# Builds cmd/serve and the benchmark from this checkout, then runs the
# benchmark with the given arguments (see NOTES.md). Run from the
# checkout root:
#
#   bash perfbench/run.sh --workload run-long --seed 1 --seconds 50 --trace 0
#
# Every build product and the Go caches stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
# With telemetry on (the default "local" mode), the go command forks a
# detached telemetry process that can outlive this script; turn it off.
mkdir -p "$out/home/go/telemetry"
printf 'off\n' >"$out/home/go/telemetry/mode"
go build -o "$out/serve" ./cmd/serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve "$out/serve" "$@"
