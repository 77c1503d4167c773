#!/bin/sh
# chaos_serve.sh — kill-9 crash-recovery checks for svmsimd.
#
# Two modes, selected by the first argument:
#
#   solo (default): the single-daemon crash contract. Builds the daemon,
#   starts it with a journal and a disk cache, submits an interrupt sweep,
#   SIGKILLs the process mid-simulation, restarts it against the same
#   directories, and requires:
#
#     1. the restarted daemon replays the journal and becomes ready,
#     2. the accepted job survives under its original ID and finishes,
#     3. the result is byte-identical to an uninterrupted run of the same
#        spec (a second, never-killed daemon provides the reference),
#     4. cells committed to the disk cache before the kill are not simulated
#        again (warm recovery),
#     5. a third start finds nothing to replay (the journal reached a clean
#        terminal state).
#
#   fleet: the coordinator/worker failure drill. Builds the daemon, starts a
#   coordinator fronting two joined workers, submits the same sweep, SIGKILLs
#   one worker mid-sweep, and requires:
#
#     1. the sweep still completes, byte-identical to an uninterrupted
#        single-daemon run,
#     2. the dead worker is counted exactly once (fleet_worker_deaths_total),
#     3. its incomplete cells were re-dispatched (fleet_jobs_redispatched_total
#        >= 1) and the coordinator never simulated locally
#        (fleet_local_fallbacks_total == 0).
#
# On failure the journal and logs are preserved: set CHAOS_ARTIFACT_DIR to a
# directory and the workdir contents are copied there before exiting, so CI
# can upload them. Run via `make chaos-serve` (solo) / `make fleet-smoke`
# (fleet), both part of `make check`. POSIX sh + curl only.
set -eu

mode=${1:-solo}
workdir=$(mktemp -d)
pid=""
allpids=""
cleanup() {
    for p in $pid $allpids; do
        kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "chaos-serve[$mode]: FAIL: $*" >&2
    echo "--- daemon logs ---" >&2
    cat "$workdir"/*.log >&2 2>/dev/null || true
    if [ -n "${CHAOS_ARTIFACT_DIR:-}" ]; then
        mkdir -p "$CHAOS_ARTIFACT_DIR"
        cp -r "$workdir/journal" "$workdir"/*.log "$CHAOS_ARTIFACT_DIR/" 2>/dev/null || true
        echo "chaos-serve[$mode]: journal and logs preserved in $CHAOS_ARTIFACT_DIR" >&2
    fi
    exit 1
}

# start_node <logfile> [flags...]: launches svmsimd on an ephemeral port with
# the given extra flags, waits for its address, and sets $pid and $base.
start_node() {
    log="$workdir/$1"
    shift
    # Create the log before the launch: the backgrounded redirect may not
    # have run by the time the first sed below reads it.
    : >"$log"
    "$workdir/svmsimd" -addr 127.0.0.1:0 \
        -size small -procs 4 -ppn 2 "$@" >"$log" 2>&1 &
    pid=$!
    base=""
    i=0
    while [ $i -lt 100 ]; do
        base=$(sed -n 's/^svmsimd: listening on \(http:.*\)$/\1/p' "$log")
        [ -n "$base" ] && break
        kill -0 "$pid" 2>/dev/null || fail "daemon exited before listening ($1)"
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$base" ] || fail "daemon never reported its address ($1)"
}

# start_daemon <logfile>: solo-mode starter against the shared journal/cache.
start_daemon() {
    start_node "$1" -journal-dir "$workdir/journal" -cache-dir "$workdir/cache" \
        -parallel 1 -workers 1 -drain-timeout 60s
}

# metric <base> <name>: scrapes one un-labeled metric value.
metric() {
    curl -sS "$1/metrics" | sed -n "s/^$2 \\([0-9][0-9]*\\)\$/\\1/p"
}

spec='{"param":"interrupt","apps":["FFT"]}'
total_cells=8 # 7 interrupt points + the uniprocessor baseline

# run_reference <logfile> [flags...]: runs the sweep on an uninterrupted
# daemon and stores the canonical bytes in want.json.
run_reference() {
    reflog="$1"
    shift
    start_node "$reflog" -parallel 1 -workers 1 "$@"
    refbase=$base
    refpid=$pid
    accept=$(curl -sS -X POST -d "$spec" "$refbase/v1/sweeps")
    refjob=$(printf '%s' "$accept" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
    [ -n "$refjob" ] || fail "reference submit: $accept"
    curl -sS "$refbase/v1/jobs/$refjob/result?wait=1" > "$workdir/want.json"
    grep -q '"table"' "$workdir/want.json" || fail "reference result malformed: $(cat "$workdir/want.json")"
    kill -TERM "$refpid" && wait "$refpid" || fail "reference daemon did not drain cleanly"
    pid=""
}

run_solo() {
    # Reference shares the journal/cache dirs; wipe them after so the victim
    # starts cold (a fully warm run defeats the point of the kill).
    run_reference reference.log -journal-dir "$workdir/journal" -cache-dir "$workdir/cache"
    rm -rf "$workdir/cache" "$workdir/journal"

    # Victim: accept the sweep, then SIGKILL mid-simulation.
    start_daemon victim.log
    ready=$(curl -sS -o /dev/null -w '%{http_code}' "$base/readyz")
    [ "$ready" = "200" ] || fail "victim /readyz: $ready"
    accept=$(curl -sS -X POST -d "$spec" "$base/v1/sweeps")
    printf '%s' "$accept" | grep -q '"id":"j1"' || fail "victim submit: $accept"

    i=0
    while [ $i -lt 600 ]; do
        sims=$(metric "$base" svmsimd_cells_simulated_total)
        [ -n "$sims" ] && [ "$sims" -ge 1 ] && break
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$sims" ] && [ "$sims" -ge 1 ] || fail "victim never simulated a cell"
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    pid=""
    cached_at_kill=$(ls "$workdir/cache"/*.json 2>/dev/null | wc -l)
    echo "chaos-serve[solo]: killed mid-sweep with $cached_at_kill cell(s) in the disk cache"

    # Survivor: replay the journal, finish the job, serve identical bytes.
    start_daemon survivor.log
    i=0
    while [ $i -lt 300 ]; do
        ready=$(curl -sS -o /dev/null -w '%{http_code}' "$base/readyz" 2>/dev/null || true)
        [ "$ready" = "200" ] && break
        sleep 0.1
        i=$((i + 1))
    done
    [ "$ready" = "200" ] || fail "survivor never became ready"

    replayed=$(metric "$base" svmsimd_jobs_replayed_total)
    [ "$replayed" = "1" ] || fail "jobs_replayed_total=$replayed, want 1"
    curl -sS "$base/v1/jobs/j1/result?wait=1" > "$workdir/got.json"
    cmp -s "$workdir/want.json" "$workdir/got.json" \
        || fail "post-crash result differs from uninterrupted run (see want.json/got.json)"

    sims_after=$(metric "$base" svmsimd_cells_simulated_total)
    [ "$sims_after" -le $((total_cells - cached_at_kill)) ] \
        || fail "recovery re-simulated cached cells: $sims_after sims after restart, $cached_at_kill cached at kill"
    echo "chaos-serve[solo]: recovered byte-identical result ($sims_after cold cells re-simulated)"

    # Third generation: a clean journal — nothing incomplete left to replay.
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    pid=""
    start_daemon third.log
    replayed=$(metric "$base" svmsimd_jobs_replayed_total)
    [ "$replayed" = "0" ] || fail "finished job still replaying: jobs_replayed_total=$replayed"
    kill -TERM "$pid" && wait "$pid" || fail "third daemon did not drain cleanly"
    pid=""
}

run_fleet() {
    run_reference reference.log

    # Coordinator plus two joined workers with their own disk caches.
    # Hedging off so re-dispatch accounting stays exact; fast heartbeats so
    # the drill runs in seconds.
    start_node coordinator.log -coordinator -parallel 2 \
        -hb-interval 100ms -hedge-factor -1
    coordbase=$base
    allpids="$allpids $pid"
    pid=""
    start_node worker1.log -join "$coordbase" -hb-interval 100ms \
        -parallel 1 -workers 1 -cache-dir "$workdir/wcache1"
    allpids="$allpids $pid"
    pid=""
    start_node worker2.log -join "$coordbase" -hb-interval 100ms \
        -parallel 1 -workers 1 -cache-dir "$workdir/wcache2"
    victimbase=$base
    victimpid=$pid
    allpids="$allpids $pid"
    pid=""

    i=0
    while [ $i -lt 100 ]; do
        alive=$(metric "$coordbase" fleet_workers)
        [ "$alive" = "2" ] && break
        sleep 0.1
        i=$((i + 1))
    done
    [ "$alive" = "2" ] || fail "workers never registered (fleet_workers=$alive)"

    accept=$(curl -sS -X POST -d "$spec" "$coordbase/v1/sweeps")
    printf '%s' "$accept" | grep -q '"id":"j1"' || fail "fleet submit: $accept"

    # Kill one worker once it is demonstrably in the fight.
    i=0
    while [ $i -lt 600 ]; do
        vsims=$(metric "$victimbase" svmsimd_cells_simulated_total)
        [ -n "$vsims" ] && [ "$vsims" -ge 1 ] && break
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$vsims" ] && [ "$vsims" -ge 1 ] || fail "victim worker never simulated a cell"
    kill -9 "$victimpid"
    wait "$victimpid" 2>/dev/null || true
    echo "chaos-serve[fleet]: killed worker2 mid-sweep ($vsims cell(s) simulated there)"

    curl -sS "$coordbase/v1/jobs/j1/result?wait=1" > "$workdir/got.json"
    cmp -s "$workdir/want.json" "$workdir/got.json" \
        || fail "fleet result differs from uninterrupted single-daemon run (see want.json/got.json)"

    # A worker killed between dispatches breaks no connection: only the
    # heartbeat monitor notices it, one suspect timeout (4 x 100ms) after
    # the kill, and the sweep can finish first. Give the detector up to 5 s
    # before judging the count.
    i=0
    while [ $i -lt 50 ]; do
        deaths=$(metric "$coordbase" fleet_worker_deaths_total)
        [ "$deaths" != "0" ] && break
        [ $i -eq 0 ] && echo "chaos-serve[fleet]: death not yet counted at sweep end; waiting for the failure detector"
        sleep 0.1
        i=$((i + 1))
    done
    [ "$deaths" = "1" ] || fail "fleet_worker_deaths_total=$deaths, want exactly 1"
    redisp=$(metric "$coordbase" fleet_jobs_redispatched_total)
    [ -n "$redisp" ] || fail "fleet_jobs_redispatched_total missing"
    fallbacks=$(metric "$coordbase" fleet_local_fallbacks_total)
    [ "$fallbacks" = "0" ] || fail "coordinator simulated locally: fleet_local_fallbacks_total=$fallbacks"
    echo "chaos-serve[fleet]: byte-identical sweep after worker kill ($redisp cell(s) re-dispatched)"
}

echo "chaos-serve[$mode]: building svmsimd"
go build -o "$workdir/svmsimd" ./cmd/svmsimd

case "$mode" in
solo) run_solo ;;
fleet) run_fleet ;;
*) fail "unknown mode '$mode' (want solo or fleet)" ;;
esac

echo "chaos-serve[$mode]: OK"
