#!/usr/bin/env bash
# run.sh — builds pmsynthd and the pmbench harness from this checkout's
# sources, then runs one benchmark invocation:
#
#   bash benchmark/run.sh --workload sweep-control --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build time is not measured. Every build
# and run artifact, the Go build cache included, stays under .bench_build/
# at the root, so a run writes nothing outside the checkout and needs no
# network (the module has no dependencies).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/pmbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/pmbench" .)
go build -o "$out/pmsynthd" ./cmd/pmsynthd

exec "$out/pmbench" -daemon "$out/pmsynthd" -work "$out" "$@"
