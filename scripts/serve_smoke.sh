#!/bin/sh
# serve_smoke.sh — end-to-end smoke test for the svmsimd daemon.
#
# Builds the daemon, starts it on an ephemeral port, submits a cell, checks
# that the result arrives and the /metrics counters move, resubmits the same
# cell to confirm it is served from the content store with zero new
# simulations, and finally SIGTERMs the daemon and requires a clean drain.
#
# Run via `make serve-smoke` (part of `make check`). POSIX sh + curl only.
set -eu

workdir=$(mktemp -d)
logfile="$workdir/svmsimd.log"
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$logfile" >&2 || true
    exit 1
}

echo "serve-smoke: building svmsimd"
go build -o "$workdir/svmsimd" ./cmd/svmsimd

# Create the log before the launch: the backgrounded redirect may not have
# run by the time the first sed below reads it.
: >"$logfile"
"$workdir/svmsimd" -addr 127.0.0.1:0 -workers 1 -drain-timeout 30s >"$logfile" 2>&1 &
pid=$!

# The daemon prints its ephemeral address once the listener is up.
base=""
i=0
while [ $i -lt 100 ]; do
    base=$(sed -n 's/^svmsimd: listening on \(http:.*\)$/\1/p' "$logfile")
    [ -n "$base" ] && break
    kill -0 "$pid" 2>/dev/null || fail "daemon exited before listening"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$base" ] || fail "daemon never reported its address"
echo "serve-smoke: daemon at $base"

spec='{"workload":"FFT","procs":4,"ppn":2}'

# Submit a cell and pull its result.
accept=$(curl -sS -X POST -d "$spec" "$base/v1/cells")
job=$(printf '%s' "$accept" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$job" ] || fail "no job id in response: $accept"
result=$(curl -sS "$base/v1/jobs/$job/result?wait=1")
printf '%s' "$result" | grep -q '"run"' || fail "result carries no run: $result"

# The metrics moved: one fresh simulation.
metrics=$(curl -sS "$base/metrics")
printf '%s\n' "$metrics" | grep -q '^svmsimd_cells_simulated_total 1$' \
    || fail "cells_simulated_total != 1 after first submission"
printf '%s\n' "$metrics" | grep -q 'svmsimd_jobs_done_total 1' \
    || fail "jobs_done_total != 1 after first submission"

# A warm resubmission is a store hit: cached job, zero new simulations.
again=$(curl -sS -X POST -d "$spec" "$base/v1/cells")
printf '%s' "$again" | grep -q '"cached":true' || fail "resubmission not cached: $again"
metrics=$(curl -sS "$base/metrics")
printf '%s\n' "$metrics" | grep -q '^svmsimd_cells_simulated_total 1$' \
    || fail "warm resubmission simulated again"
printf '%s\n' "$metrics" | grep -q 'svmsimd_cache_hits_total{layer="store"} 1' \
    || fail "store hit not counted"

# Graceful drain: SIGTERM, clean exit. The daemon's own -drain-timeout
# bounds the wait; a hang beyond it exits nonzero and fails here.
kill -TERM "$pid"
wait "$pid" || fail "daemon exited nonzero after SIGTERM"
grep -q 'drained cleanly' "$logfile" || fail "no clean-drain confirmation in log"
pid=""

echo "serve-smoke: OK"
