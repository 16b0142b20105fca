#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it. Run it
# from the root of the checkout, as BENCHMARK.json's command does:
#
#   bash bench/run.sh --workload sim-decentral --seed 7003 --seconds 24 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ in
# the checkout, the Go build cache included, so nothing outside the
# checkout is read or written.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run me from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
