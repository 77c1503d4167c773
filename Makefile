# Development checks for svmsim. `make check` is the CI gate: vet of both
# modules, the domain-specific svmlint analyzers (determinism / wall-clock /
# no-lock / stats-wiring invariants, see internal/lint), build, the full test suite of both
# modules (which drives the real svmsimd binary through its crash, drain and
# fleet drills, and the real sweep command through a twin-pruned sweep), the
# race detector over the packages with real concurrency (the parallel
# experiment pool and the engine), and the node-crash smoke.

GO ?= go

.PHONY: check vet lint lint-report build test race chaos bench-engine bench-smoke experiments faults

check: vet lint build test race chaos

vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# svmlint gates the simulator's non-negotiable invariants; `gofmt -l` rides
# along so formatting drift fails the same target. Every finding fails the
# run unless a reasoned `//svmlint:ignore <analyzer> <reason>` comment
# accepts it. Run `go run ./cmd/svmlint -analyzers` for the catalogue.
lint:
	$(GO) run ./cmd/svmlint ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint-report writes the full machine-readable finding list (including
# suppressed entries) for CI artifact upload; it never fails.
lint-report:
	-$(GO) run ./cmd/svmlint -json -v ./... > svmlint-report.json

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
# journal, the fleet coordinator's dispatch/heartbeat machinery) plus the
# fault-recovery machinery whose livelock regressions must fail fast instead
# of hanging.
race:
	$(GO) test -race -timeout 10m ./internal/exp/... ./internal/engine/... ./internal/network/... ./internal/proto/... ./internal/server/... ./internal/fleet/...

# Crash-stop smoke: the node-crash sweep on a small topology under the race
# detector — heartbeat detection, recovery and degraded-mode completion end
# to end, in well under a minute.
chaos:
	$(GO) run -race ./cmd/experiments -only nodecrash -procs 4 -ppn 2

# End-to-end performance (one simulation, a paper regeneration, the served
# path) is measured by bench/ (`bash bench/run.sh`, see bench/README.md);
# the root keeps only the micro-benchmarks CI gates on.

# Engine hot-path allocation guardrails.
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchmem ./internal/engine/

# CI benchmark smoke: one -benchtime=1x pass asserting the engine's
# 0 allocs/op contract plus one end-to-end single-run and one sync-run,
# each under an allocation budget. Seconds.
bench-smoke:
	sh scripts/bench_smoke.sh

# Regenerate every table and figure of the paper (small sizes, parallel).
experiments:
	$(GO) run ./cmd/experiments

# Fault-injection smoke: the drop-rate sweep on a small topology. Finishes in
# seconds and exercises the reliable-delivery layer end to end.
faults:
	$(GO) run ./cmd/experiments -only droprate -procs 4 -ppn 2
