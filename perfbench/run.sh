#!/usr/bin/env bash
# Builds the ldprecover server and the benchmark from the checkout they
# sit in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload report-ingest --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything it builds or writes stays in
# .bench_build/ under that root, Go's build cache included.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$build/ldprecover" ./cmd/ldprecover
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -server "$build/ldprecover" -workdir "$build" "$@"
