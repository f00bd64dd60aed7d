#!/usr/bin/env bash
# Builds the benchmark and cmd/pfg-serve from the checkout it is run in,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-tmfg --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache, traces and server state all stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
go build -o "$out/pfg-serve" ./cmd/pfg-serve >&2
exec "$out/perfbench" -root "$root" -server "$out/pfg-serve" -out "$out" "$@"
