#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload figs-graph --seed 1 --seconds 50 --trace 0
#
# The Go build cache, module path and binary all live under .bench_build in
# the current directory, so the build reads and writes nothing outside it.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd benchmark && go build -o "$build/cpsbench" .)
exec "$build/cpsbench" "$@"
