package main

import (
	"math"
	"sort"
)

// metric is one named number the benchmark reports. End-to-end metrics carry
// the bound by which a change may worsen them before it is a regression;
// per-layer metrics name the end-to-end metric and workload they should move.
// BENCHMARK.json repeats the names, units, directions and bounds, and a test
// holds the two in agreement.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  string
	read   func(a *aggregate) reading
}

// reading is one metric's value with the number of samples behind it. For a
// percentile, beyond counts the samples above it; it is -1 otherwise.
type reading struct {
	value  float64
	n      int
	beyond int
}

// minBeyond is how many samples a reported percentile needs above it.
const minBeyond = 10

// endToEnd are the metrics a user of the simulator sees. They come only from
// untraced runs. The tail is p75, not p90: on the shared reference host the
// p90 of sim-sync and sweep spread past the bound from run to run (README.md).
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		read: func(a *aggregate) reading { return reading{median(a.setupS), len(a.setupS), -1} }},
	{name: "ops_per_s", unit: "op/s", better: "higher", bound: 0.25,
		read: func(a *aggregate) reading { return reading{div(float64(a.ops), a.wallS), a.ops, -1} }},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25, read: pct("op_ms", 50)},
	{name: "op_ms_p75", unit: "ms", better: "lower", bound: 0.25, read: pct("op_ms", 75)},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25,
		read: func(a *aggregate) reading { return reading{median(a.peakMB), len(a.peakMB), -1} }},
}

// layerNames are the profile layers whose self time is reported: the
// simulator's packages (internal/apps/* folded into apps), the harness
// layers a workload crosses, and runtime for samples with no svmsim frame.
var layerNames = []string{"apps", "engine", "exp", "interrupts", "machine", "memsys",
	"network", "node", "proto", "server", "shm", "twin", "runtime"}

// perLayer come from traced runs. Each one's moves field names the
// end-to-end metric and workload it should move; a traced run prints it
// beside the value, and README.md explains the map.
var perLayer = func() []metric {
	m := []metric{
		{name: "machine.build_ms", unit: "ms", better: "lower", read: pct("machine.build_ms", 50),
			moves: "op_ms_p50 on sim-sync; ops_per_s and peak_rss_mb on sweep"},
		{name: "app.setup_ms", unit: "ms", better: "lower", read: pct("app.setup_ms", 50),
			moves: "op_ms_p50 on sim-sync"},
		{name: "engine.run_ms", unit: "ms", better: "lower", read: pct("engine.run_ms", 50),
			moves: "op_ms_* on sim-sync and sim-bulk"},
		{name: "app.check_ms", unit: "ms", better: "lower", read: pct("app.check_ms", 50),
			moves: "op_ms_p50 on sim-sync"},
		{name: "runtime.alloc_mb_per_op", unit: "MB/op", better: "lower", read: perOp("alloc_bytes", 1e-6),
			moves: "op_ms_p50 on sim-sync; peak_rss_mb on sweep"},
		{name: "runtime.mallocs_per_op", unit: "count/op", better: "lower", read: perOp("mallocs", 1),
			moves: "op_ms_p50 on sim-sync"},
		{name: "runtime.sched_wait_us_p99", unit: "us", better: "lower", read: perRound("sched_wait_us_p99"),
			moves: "op_ms_* on every sim workload and on serve"},
		{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower", read: ratio("gc_cpu_s", "total_cpu_s"),
			moves: "ops_per_s and peak_rss_mb on sweep"},
		{name: "sim.interrupts", unit: "count/sim", better: "lower", read: perSim("sim.interrupts"),
			moves: "exact; interrupts.self_ms on sim-sync"},
		{name: "sim.msgs", unit: "count/sim", better: "lower", read: perSim("sim.msgs"),
			moves: "exact; network.self_ms on sim-sync"},
		{name: "sim.bytes", unit: "count/sim", better: "lower", read: perSim("sim.bytes"),
			moves: "exact; network.self_ms on sim-sync"},
		{name: "sim.mem_refs", unit: "count/sim", better: "lower", read: perSim("sim.mem_refs"),
			moves: "exact; memsys.self_ms on sim-bulk"},
		{name: "sim.update_words", unit: "count/sim", better: "lower", read: perSim("sim.update_words"),
			moves: "exact; proto.self_ms on sim-bulk"},
		{name: "sim.diffs", unit: "count/sim", better: "lower", read: perSim("sim.diffs"),
			moves: "exact; proto.self_ms on sim-sync"},
		{name: "sim.cycles", unit: "cycles/sim", better: "lower", read: perSim("sim.cycles"),
			moves: "exact: a simulator-speed change leaves it identical"},
		{name: "sim.page_fetches", unit: "count/sim", better: "lower", read: perSim("sim.page_fetches"),
			moves: "exact: a simulator-speed change leaves it identical"},
		{name: "sim.remote_locks", unit: "count/sim", better: "lower", read: perSim("sim.remote_locks"),
			moves: "exact: a simulator-speed change leaves it identical"},
	}
	for _, k := range timeKinds {
		m = append(m, metric{name: "sim.time." + k, unit: "cycles/sim", better: "lower", read: perSim("sim.time." + k),
			moves: "exact: a simulator-speed change leaves it identical"})
	}
	layerMoves := map[string]string{
		"apps":       "op_ms_* on sim-sync and sim-bulk",
		"engine":     "op_ms_* on every sim workload and on serve",
		"exp":        "ops_per_s on sweep",
		"interrupts": "op_ms_* on sim-sync, not sim-bulk",
		"machine":    "op_ms_p50 on sim-sync",
		"memsys":     "op_ms_* on sim-bulk; ops_per_s on sweep",
		"network":    "op_ms_* on sim-sync",
		"node":       "op_ms_* on sim-bulk; ops_per_s on sweep",
		"proto":      "op_ms_* on sim-sync and sim-bulk",
		"server":     "op_ms_* on serve",
		"shm":        "op_ms_* on sim-bulk",
		"twin":       "setup_s and op_ms_p50 on serve",
		"runtime":    "ops_per_s on every workload",
	}
	for _, l := range layerNames {
		m = append(m, metric{name: l + ".self_ms", unit: "ms/op", better: "lower", read: perOp("self_ns."+l, 1e-6),
			moves: layerMoves[l]})
	}
	return append(m,
		metric{name: "exp.cells_served", unit: "count/op", better: "lower", read: perOp("exp.served", 1),
			moves: "ops_per_s on sweep; nothing on sim-*"},
		metric{name: "exp.cells_simulated", unit: "count/op", better: "lower", read: perOp("exp.simulated", 1),
			moves: "ops_per_s on sweep; nothing on sim-*"},
		metric{name: "exp.memo_hit_ratio", unit: "ratio", better: "higher", read: ratio("exp.memo", "exp.served"),
			moves: "ops_per_s on sweep"},
		metric{name: "exp.flight_waits", unit: "count/op", better: "lower", read: perOp("exp.flight", 1),
			moves: "ops_per_s on sweep"},
		metric{name: "exp.sim_ms_p50", unit: "ms", better: "lower", read: pct("exp.sim_ms", 50),
			moves: "op_ms_p50 on sweep; ops_per_s on serve"},
		metric{name: "exp.parallel_efficiency", unit: "ratio", better: "higher", read: ratio("exp.sim_s", "exp.worker_s"),
			moves: "ops_per_s on sweep"},
		metric{name: "exp.retained_mb", unit: "MB", better: "lower", read: perRound("exp.retained_mb"),
			moves: "peak_rss_mb on sweep and serve"},
		metric{name: "server.admit_ms_p50", unit: "ms", better: "lower", read: pct("server.admit_ms", 50),
			moves: "ops_per_s on serve"},
		metric{name: "server.admit_ms_p99", unit: "ms", better: "lower", read: pct("server.admit_ms", 99),
			moves: "ops_per_s on serve"},
		metric{name: "server.queue_ms_p50", unit: "ms", better: "lower", read: pct("server.queue_ms", 50),
			moves: "ops_per_s on serve"},
		metric{name: "server.store_hit_ratio", unit: "ratio", better: "higher", read: ratio("server.store_hits", "server.cells_accepted"),
			moves: "op_ms_* on serve"},
		metric{name: "server.rejected", unit: "count", better: "lower", read: perRound("server.rejected"),
			moves: "attempted and failed on serve"},
		metric{name: "serve.cold_ms_p50", unit: "ms", better: "lower", read: pct("serve.cold_ms", 50),
			moves: "ops_per_s on serve"},
		metric{name: "serve.cold_ms_p90", unit: "ms", better: "lower", read: pct("serve.cold_ms", 90),
			moves: "ops_per_s on serve"},
		metric{name: "serve.warm_ms_p50", unit: "ms", better: "lower", read: pct("serve.warm_ms", 50),
			moves: "op_ms_* on serve"},
		metric{name: "serve.warm_ms_p99", unit: "ms", better: "lower", read: pct("serve.warm_ms", 99),
			moves: "op_ms_* on serve"},
		metric{name: "serve.predict_ms_p50", unit: "ms", better: "lower", read: pct("serve.predict_ms", 50),
			moves: "op_ms_* on serve"},
		metric{name: "serve.predict_ms_p99", unit: "ms", better: "lower", read: pct("serve.predict_ms", 99),
			moves: "op_ms_* on serve"},
		metric{name: "twin.calibrate_s", unit: "s", better: "lower", read: perRound("twin.calibrate_s"),
			moves: "setup_s on serve"},
		metric{name: "twin.calibrations", unit: "count", better: "lower", read: perRound("twin.calibrations"),
			moves: "setup_s on serve"},
		metric{name: "trace.overhead_ratio", unit: "ratio", better: "lower",
			read:  func(a *aggregate) reading { return reading{a.overhead, a.ops, -1} },
			moves: "none: traced over untraced op time"},
		metric{name: "trace.attributed_share", unit: "ratio", better: "higher", read: attributedShare,
			moves: "none: share of profile samples in a reported layer"},
	)
}()

// timeKinds are the stats.TimeKind names in wire order, as metric suffixes.
var timeKinds = []string{"compute", "local_stall", "data_wait", "lock_wait",
	"barrier_wait", "handler", "send_overhead", "diff"}

// aggregate pools the reports of a workload's rounds.
type aggregate struct {
	rounds   int
	ops      int
	failed   int
	wallS    float64
	setupS   []float64
	peakMB   []float64
	samples  map[string][]float64
	sums     map[string]float64
	overhead float64
}

func aggregateRounds(rs []*roundReport) *aggregate {
	a := &aggregate{rounds: len(rs), samples: map[string][]float64{}, sums: map[string]float64{}}
	for _, r := range rs {
		a.ops += r.Ops
		a.failed += r.Failed
		a.wallS += r.WallS
		a.setupS = append(a.setupS, r.SetupS)
		a.peakMB = append(a.peakMB, r.PeakRSSMB)
		for k, v := range r.Samples {
			a.samples[k] = append(a.samples[k], v...)
		}
		for k, v := range r.Sums {
			a.sums[k] += v
		}
	}
	return a
}

func pct(key string, p float64) func(*aggregate) reading {
	return func(a *aggregate) reading {
		v, beyond := percentile(a.samples[key], p)
		return reading{v, len(a.samples[key]), beyond}
	}
}

func perOp(key string, scale float64) func(*aggregate) reading {
	return func(a *aggregate) reading { return reading{div(a.sums[key]*scale, float64(a.ops)), a.ops, -1} }
}

func perSim(key string) func(*aggregate) reading {
	return func(a *aggregate) reading {
		return reading{div(a.sums[key], a.sums["sims"]), int(a.sums["sims"]), -1}
	}
}

func perRound(key string) func(*aggregate) reading {
	return func(a *aggregate) reading { return reading{div(a.sums[key], float64(a.rounds)), a.rounds, -1} }
}

func ratio(num, den string) func(*aggregate) reading {
	return func(a *aggregate) reading { return reading{div(a.sums[num], a.sums[den]), int(a.sums[den]), -1} }
}

func attributedShare(a *aggregate) reading {
	var in float64
	for _, l := range layerNames {
		in += a.sums["self_ns."+l]
	}
	return reading{div(in, a.sums["self_ns.total"]), int(a.sums["self_samples"]), -1}
}

// percentile returns the nearest-rank p-th percentile of xs and the number of
// samples above it.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i], len(s) - 1 - i
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
