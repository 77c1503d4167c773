#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload sim-sync --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# serve journal, traces) stays under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C bench build -buildvcs=false -o "$build/svmbench" .
exec "$build/svmbench" "$@"
