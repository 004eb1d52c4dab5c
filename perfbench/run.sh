#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload live-gateway --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), including the Go build cache.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
