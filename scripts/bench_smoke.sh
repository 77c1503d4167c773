#!/bin/sh
# bench_smoke.sh — CI guardrail for the engine hot path, in seconds.
#
# Two passes over the engine scheduling benchmarks (a Delay that round-trips
# through the scheduler loop, a Delay that resumes in place, a contended
# bus-read-shaped Do program that must park at most once per Do, a
# write-buffer-stall-shaped Do program that waits on a condition and must
# park at most once per Do, a contended drain-shaped burst on a reusable
# service thread that must never switch, and a Park/Unpark ping-pong):
#
#   1. -benchtime=1x     smoke: one iteration of each must complete.
#   2. -benchtime=1000x  guardrail: 0 allocs/op on the schedule path.
#
# The alloc assertion runs at 1000 iterations because a single-iteration run
# reports ~2 fixed allocs/op of runtime/testing bookkeeping, whatever the
# engine's event queue; at 1000x those divide to zero and any real
# per-event allocation — a stray closure or interface box — still reads as
# >= 1. That contract is what keeps GC pressure out of multi-hour sweeps.
# BenchmarkSingleRun rides along at 1x as an end-to-end smoke (one full FFT
# cell) with an allocation budget: it fails once B/op reaches 16 MiB, one
# node memory image backing the whole default heap. Images cover only the
# allocated pages (a run allocates about 3.7 MB: 3,653,320 B/op on a 2-core
# Intel Xeon VM with go1.24.0), so backing any node with the full heap
# again trips it. The model layer allocates by design, so
# this bounds the total per run rather than asserting a per-event contract.
# BenchmarkSyncRun (one Barnes-rebuild HLRC cell, the most lock- and
# interrupt-dense sim-sync app) rides along at 1x with an allocation-count
# budget of 10,711 allocs/op: the measured 8,569 allocs/op (2-core Intel
# Xeon VM, go1.24.0) plus 25%. A request path that allocated per interrupt
# or per lock message again would read about 46,900 and trip it.
#
# Run via `make bench-smoke` (part of CI). POSIX sh + awk only.
set -eu

engine='BenchmarkEngineDelay$|BenchmarkEngineDelayInPlace$|BenchmarkEngineDo$|BenchmarkEngineDoWait$|BenchmarkEngineService$|BenchmarkEngineUnpark$'

echo "bench-smoke: engine single-iteration smoke"
go test -run '^$' -bench "$engine" -benchtime 1x ./internal/engine/

echo "bench-smoke: engine 0 allocs/op guardrail"
out=$(go test -run '^$' -bench "$engine" -benchtime 1000x -benchmem ./internal/engine/)
printf '%s\n' "$out"
printf '%s\n' "$out" | awk '
/^Benchmark/ {
    n++
    if ($(NF - 1) + 0 != 0) { print "bench-smoke: FAIL: " $1 " allocates " $(NF - 1) " allocs/op, want 0"; bad = 1 }
}
END {
    if (n != 6) { print "bench-smoke: FAIL: expected 6 benchmark lines, saw " n; exit 1 }
    exit bad
}'

echo "bench-smoke: single-run end-to-end smoke and allocation budget"
out=$(go test -run '^$' -bench 'BenchmarkSingleRun$' -benchtime 1x -benchmem .)
printf '%s\n' "$out"
printf '%s\n' "$out" | awk -v budget=16777216 '
/^BenchmarkSingleRun/ {
    n++
    bytes = -1
    for (i = 2; i < NF; i++) if ($(i + 1) == "B/op") bytes = $i + 0
    if (bytes < 0) { print "bench-smoke: FAIL: " $1 " reports no B/op"; bad = 1 }
    else if (bytes >= budget) { print "bench-smoke: FAIL: " $1 " allocates " bytes " B/op, budget " budget; bad = 1 }
}
END {
    if (n != 1) { print "bench-smoke: FAIL: expected 1 benchmark line, saw " n; exit 1 }
    exit bad
}'

echo "bench-smoke: sync-run end-to-end smoke and allocation-count budget"
out=$(go test -run '^$' -bench 'BenchmarkSyncRun$' -benchtime 1x -benchmem .)
printf '%s\n' "$out"
printf '%s\n' "$out" | awk -v budget=10711 '
/^BenchmarkSyncRun/ {
    n++
    allocs = -1
    for (i = 2; i < NF; i++) if ($(i + 1) == "allocs/op") allocs = $i + 0
    if (allocs < 0) { print "bench-smoke: FAIL: " $1 " reports no allocs/op"; bad = 1 }
    else if (allocs > budget) { print "bench-smoke: FAIL: " $1 " makes " allocs " allocs/op, budget " budget; bad = 1 }
}
END {
    if (n != 1) { print "bench-smoke: FAIL: expected 1 benchmark line, saw " n; exit 1 }
    exit bad
}'

echo "bench-smoke: OK"
