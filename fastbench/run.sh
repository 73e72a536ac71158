#!/usr/bin/env bash
# Builds fastd and the fastbench program from this checkout into .bench_build,
# then runs fastbench with the given arguments. Run from the repository root:
#
#   bash fastbench/run.sh --workload serve-durable --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/fastd" ./cmd/fastd
(cd fastbench && go build -o "$out/bin/fastbench" .)
exec "$out/bin/fastbench" -root "$root" -fastd "$out/bin/fastd" "$@"
