#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# arguments given. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload repair --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# Twice: against the repository (the subject) and against the frozen
# reference implementation in benchmark/ref (ref.mod), which the subject is
# measured beside.
go build -C "$root/benchmark" -o "$out/bench.bin" .
go build -C "$root/benchmark" -modfile=ref.mod -o "$out/ref.bin" .
exec "$out/bench.bin" -ref "$out/ref.bin" "$@"
