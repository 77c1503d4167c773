package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// processStart approximates the process's start: set-up time is measured
// from here to the first timed op.
var processStart = time.Now()

// roundSpec is what the orchestrator hands a child process: one round of a
// workload, i.e. one set-up followed by Passes seeded passes of timed ops.
type roundSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Round    int    `json:"round"`
	Passes   int    `json:"passes"`
	// OpsCap bounds the round's timed ops (0 = whole passes).
	OpsCap int  `json:"ops_cap"`
	Trace  bool `json:"trace"`
	// Record fills the golden set instead of checking against it.
	Record bool `json:"record"`
}

// roundReport is a child's result. Samples pool across rounds; Sums add.
type roundReport struct {
	SetupS    float64              `json:"setup_s"`
	WallS     float64              `json:"wall_s"`
	Ops       int                  `json:"ops"`
	Failed    int                  `json:"failed"`
	PeakRSSMB float64              `json:"peak_rss_mb"`
	Samples   map[string][]float64 `json:"samples"`
	Sums      map[string]float64   `json:"sums"`
	Golden    map[string]string    `json:"golden,omitempty"`
}

// round is the state one child shares with its workload session. Clients of
// the serve workload record from several goroutines, so every recorder
// locks.
type round struct {
	spec   roundSpec
	golden *golden
	trace  *tracer // nil when not tracing

	mu       sync.Mutex
	ops      int
	failed   int
	failLogs int
	samples  map[string][]float64
	sums     map[string]float64
}

// session is one workload's state inside a round: opened during set-up,
// then driven through its timed passes, then closed outside the timed
// region (where it may run further checks).
type session interface {
	pass(p int) error
	close() error
}

// begin reserves the next timed op, or reports that the round's op cap is
// reached.
func (r *round) begin() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spec.OpsCap > 0 && r.ops >= r.spec.OpsCap {
		return false
	}
	r.ops++
	return true
}

// fail counts a failed op; the first few reasons go to standard error.
func (r *round) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if r.failLogs < 5 {
		r.failLogs++
		fmt.Fprintf(os.Stderr, "svmbench: %s: failed op: %s\n", r.spec.Workload, fmt.Sprintf(format, args...))
	}
}

func (r *round) sample(key string, v float64) {
	r.mu.Lock()
	r.samples[key] = append(r.samples[key], v)
	r.mu.Unlock()
}

func (r *round) add(key string, v float64) {
	r.mu.Lock()
	r.sums[key] += v
	r.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runRound runs one round in this process: set-up, timed passes (profiled
// when tracing), then the session's untimed close.
func runRound(spec roundSpec, g *golden) (*roundReport, error) {
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	r := &round{spec: spec, golden: g, samples: map[string][]float64{}, sums: map[string]float64{}}
	var profile *os.File
	dir := traceDir(spec.Workload)
	if spec.Trace {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		r.trace = newTracer()
	}

	s, err := w.open(r)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	setup := time.Since(processStart)

	if spec.Trace {
		if profile, err = os.Create(filepath.Join(dir, fmt.Sprintf("round%d.cpu.pprof", spec.Round))); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(profile); err != nil {
			return nil, err
		}
	}
	before := readRuntime()
	var wall time.Duration
	for p := 0; p < spec.Passes; p++ {
		t := time.Now()
		err := s.pass(p)
		wall += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, p, err)
		}
	}
	after := readRuntime()
	if spec.Trace {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			return nil, err
		}
		self, err := attributeProfile(profile.Name())
		if err != nil {
			return nil, err
		}
		for k, v := range self {
			r.sums[k] += v
		}
		if err := r.trace.write(filepath.Join(dir, fmt.Sprintf("round%d.spans.jsonl", spec.Round))); err != nil {
			return nil, err
		}
	}
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("%s close: %w", w.name, err)
	}

	r.sums["alloc_bytes"] += float64(after.alloc - before.alloc)
	r.sums["mallocs"] += float64(after.mallocs - before.mallocs)
	r.sums["gc_cpu_s"] += after.gcCPU - before.gcCPU
	r.sums["total_cpu_s"] += after.totalCPU - before.totalCPU
	r.sums["sched_wait_us_p99"] += schedP99(before.sched, after.sched) * 1e6
	rep := &roundReport{
		SetupS:    setup.Seconds(),
		WallS:     wall.Seconds(),
		Ops:       r.ops,
		Failed:    r.failed,
		PeakRSSMB: peakRSSMB(),
		Samples:   r.samples,
		Sums:      r.sums,
	}
	if spec.Record {
		rep.Golden = g.sums
	}
	return rep, nil
}

func traceDir(workload string) string { return filepath.Join(".bench_build", "trace", workload) }

// runtimeSnap is the Go runtime's own counters at one instant.
type runtimeSnap struct {
	alloc, mallocs  uint64
	gcCPU, totalCPU float64
	sched           *metrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(samples)
	return runtimeSnap{
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		gcCPU:    samples[0].Value.Float64(),
		totalCPU: samples[1].Value.Float64(),
		sched:    samples[2].Value.Float64Histogram(),
	}
}

// schedP99 is the 99th percentile, in seconds, of the time goroutines waited
// to run between two snapshots of the runtime's scheduler-latency histogram
// (the upper edge of the bucket holding it).
func schedP99(before, after *metrics.Float64Histogram) float64 {
	var total uint64
	counts := make([]uint64, len(after.Counts))
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := total - total/100
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// peakRSSMB is this process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
