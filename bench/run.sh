#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, from the root of the
# repository:
#
#   bash bench/run.sh -workload hot-scenes -seed 1 -seconds 10 -trace 0
#
# Everything the build and the run write (binaries, the Go build cache,
# access logs) stays under .bench_build/ in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
