# Development checks for svmsim. `make check` is the CI gate: vet of both
# modules, the domain-specific svmlint analyzers (determinism / unit-suffix /
# hot-path allocation invariants, see internal/lint), build, the full test
# suite of both modules, the race detector over the packages with real
# concurrency (the parallel experiment pool and the engine), and the crash,
# serving and twin smokes.

GO ?= go

.PHONY: check vet lint lint-baseline lint-report build test race chaos serve-smoke chaos-serve fleet-smoke twin-validate bench bench-engine bench-smoke bench-snapshot experiments faults

check: vet lint build test race chaos serve-smoke chaos-serve fleet-smoke twin-validate

vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# svmlint gates the simulator's non-negotiable invariants; `gofmt -l` rides
# along so formatting drift fails the same target. Findings recorded in
# lint.baseline.json are accepted debt and do not fail the run — only new
# findings do. Run `go run ./cmd/svmlint -analyzers` for the catalogue.
lint:
	$(GO) run ./cmd/svmlint -baseline lint.baseline.json ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint-baseline recaptures the accepted-findings baseline. Use after
# deliberately accepting a finding; shrink the file whenever possible.
lint-baseline:
	$(GO) run ./cmd/svmlint -baseline lint.baseline.json -write-baseline ./...

# lint-report writes the full machine-readable finding list (including
# suppressed and baselined entries) for CI artifact upload; it never fails.
lint-report:
	-$(GO) run ./cmd/svmlint -json -v -baseline lint.baseline.json ./... > svmlint-report.json

build:
	$(GO) build ./...

# bench/ is its own module (the benchmark harness), so the root `./...`
# pattern does not reach its tests; they pin the FFT golden, the
# BENCHMARK.json metric catalogue and the compare rules.
test:
	$(GO) test ./...
	$(GO) -C bench test ./...

# The race set covers the packages with real concurrency (the parallel
# experiment pool, the engine, the serving daemon's worker pool and
# watchdog, the fleet coordinator's dispatch/heartbeat machinery) plus the
# fault-recovery machinery whose livelock regressions must fail fast instead
# of hanging.
race:
	$(GO) test -race -timeout 10m ./internal/exp/... ./internal/engine/... ./internal/network/... ./internal/proto/... ./internal/server/... ./internal/fleet/...

# Crash-stop smoke: the node-crash sweep on a small topology under the race
# detector — heartbeat detection, recovery and degraded-mode completion end
# to end, in well under a minute.
chaos:
	$(GO) run -race ./cmd/experiments -only nodecrash -procs 4 -ppn 2

# Daemon smoke: build svmsimd, serve one cell over HTTP, verify the metrics
# counters move and a warm resubmission is a zero-simulation store hit, then
# SIGTERM and require a clean drain. Seconds end to end.
serve-smoke:
	sh scripts/serve_smoke.sh

# Daemon crash safety: SIGKILL svmsimd mid-sweep, restart it on the same
# journal and cache, and require the replayed job to finish byte-identical to
# an uninterrupted run with no cached cell simulated twice. Seconds end to
# end; set CHAOS_ARTIFACT_DIR to preserve the journal and logs on failure.
chaos-serve:
	sh scripts/chaos_serve.sh

# Fleet crash safety: coordinator + two joined workers, SIGKILL one worker
# mid-sweep, require a byte-identical sweep with exactly one counted death,
# the dead worker's cells re-dispatched and zero local fallbacks. Seconds end
# to end; CHAOS_ARTIFACT_DIR preserves logs on failure, as for chaos-serve.
fleet-smoke:
	sh scripts/chaos_serve.sh fleet

# Analytical-twin smoke: run the interrupt sweep with and without
# -twin-prune, require a strictly smaller simulation count with the
# reduction logged, the predicted cells marked in the document, and every
# pruned-table value within 15% of the fully simulated one. A couple of
# minutes end to end.
twin-validate:
	sh scripts/twin_validate.sh

# Single-run and suite-level throughput benchmarks (before/after numbers for
# EXPERIMENTS.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSingleRun|BenchmarkSuite' -benchmem .

# Engine hot-path allocation guardrails.
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchmem ./internal/engine/

# CI benchmark smoke: one -benchtime=1x pass asserting the engine's
# 0 allocs/op contract plus one end-to-end single-run. Seconds.
bench-smoke:
	sh scripts/bench_smoke.sh

# Record the perf trajectory: best-of-N engine, table and twin benchmark
# numbers written to BENCH_PR10.json (checked in; see
# scripts/bench_snapshot.sh).
bench-snapshot:
	sh scripts/bench_snapshot.sh BENCH_PR10.json

# Regenerate every table and figure of the paper (small sizes, parallel).
experiments:
	$(GO) run ./cmd/experiments

# Fault-injection smoke: the drop-rate sweep on a small topology. Finishes in
# seconds and exercises the reliable-delivery layer end to end.
faults:
	$(GO) run ./cmd/experiments -only droprate -procs 4 -ppn 2
