// Package svmsim is an execution-driven simulator for page-based shared
// virtual memory (SVM) clusters, reproducing the system studied in
// "The Effects of Communication Parameters on End Performance of Shared
// Virtual Memory Clusters" (Bilas & Singh, SC'97).
//
// The simulated machine is a cluster of SMP nodes (private L1/L2 caches,
// write buffers, a split-transaction memory bus with contention) connected
// by a Myrinet-like system area network through network interfaces on an I/O
// bus. On top of it run the home-based SVM protocols HLRC (software diffs)
// and AURC (automatic update), complete with twins, vector timestamps, write
// notices, distributed locks and hierarchical barriers. Applications execute
// as real Go code against the simulated shared address space, so protocol
// correctness is validated by application results, and timing comes from the
// architectural model.
//
// The four communication parameters of the paper — host overhead, network
// interface occupancy, I/O bus bandwidth and interrupt cost — plus page size
// and degree of clustering are all first-class configuration.
// cmd/experiments regenerates every table and figure of the paper's
// evaluation, and internal/exp's TestReproducedTables holds them to the
// bytes recorded in EXPERIMENTS.md. Start with Achievable() or Best(), pick
// a workload from Workloads(), and Run it:
//
//	cfg := svmsim.Achievable()
//	res, err := svmsim.Run(cfg, svmsim.FFT(svmsim.FFTSmall()))
//	fmt.Println(res.Run.Cycles)
package svmsim

import (
	"svmsim/internal/apps/barnes"
	"svmsim/internal/apps/fft"
	"svmsim/internal/apps/lu"
	"svmsim/internal/apps/ocean"
	"svmsim/internal/apps/radix"
	"svmsim/internal/apps/raytrace"
	"svmsim/internal/apps/volrend"
	"svmsim/internal/apps/water"
	"svmsim/internal/engine"
	"svmsim/internal/interrupts"
	"svmsim/internal/machine"
	"svmsim/internal/network"
	"svmsim/internal/proto"
	"svmsim/internal/shm"
	"svmsim/internal/stats"
	"svmsim/internal/trace"
)

// Config is a full cluster configuration: one point in the paper's
// communication-parameter space plus the fixed architecture.
type Config = machine.Config

// Time is simulated time in processor cycles: the type of every
// cycle-valued Config field. The run statistics report cycles as uint64.
type Time = engine.Time

// App is a simulated SPMD application.
type App = machine.App

// Result is a finished run: statistics plus the world for inspection.
type Result = machine.Result

// Run executes an application on a configuration.
func Run(cfg Config, app App) (*Result, error) { return machine.Run(cfg, app) }

// Achievable returns the paper's "achievable" parameter set (aggressive but
// realistic values; see DESIGN.md).
func Achievable() Config { return machine.Achievable() }

// Best returns the paper's "best" parameter set (all communication
// parameters at the best end of the studied ranges; contention still
// modeled).
func Best() Config { return machine.Best() }

// Uniprocessor derives the 1-processor baseline configuration used for
// speedups.
func Uniprocessor(cfg Config) Config { return machine.Uniprocessor(cfg) }

// Mode selects the protocol (Config.Proto.Mode).
type Mode = proto.Mode

// Protocol modes.
const (
	HLRC = proto.HLRC
	AURC = proto.AURC
)

// IntrPolicy selects interrupt delivery within a node (Config.IntrPolicy).
type IntrPolicy = interrupts.Policy

// Interrupt delivery policies.
const (
	IntrStatic     = interrupts.Static
	IntrRoundRobin = interrupts.RoundRobin
)

// RequestHandling selects how protocol requests reach a processor
// (Config.Requests).
type RequestHandling = interrupts.Handling

// Request handling schemes: the paper's interrupt baseline plus its
// proposed avoidance schemes.
const (
	RequestInterrupts = interrupts.Interrupts
	RequestPolling    = interrupts.Polling
	RequestDedicated  = interrupts.Dedicated
)

// Fault-injection and reliable-delivery configuration (Config.Net.Fault and
// Config.Net.Reliable; see internal/network). A FaultPlan injects
// deterministic packet drops, duplicates and reorder delays; ReliableParams
// layers ack/retransmit recovery on the NI pipeline.
type (
	// FaultPlan is a deterministic fault-injection schedule.
	FaultPlan = network.FaultPlan
	// LinkFaults is the per-link/per-kind fault rates of a FaultPlan.
	LinkFaults = network.LinkFaults
	// Link names one directed link in a FaultPlan.
	Link = network.Link
	// ReliableParams configures the ack/retransmit recovery layer.
	ReliableParams = network.ReliableParams
	// LinkFailureError reports a message exhausting its retry budget.
	LinkFailureError = network.LinkFailureError
	// StallError reports the progress watchdog firing (see Config.MaxCycles).
	StallError = engine.StallError
	// DeadlockError reports the event queue draining with threads parked.
	DeadlockError = engine.DeadlockError
	// LivelockError reports the engine's livelock guard firing: the run
	// dispatched 50 billion events without finishing.
	LivelockError = engine.LivelockError
	// ThreadPanicError reports a panic inside a simulated thread.
	ThreadPanicError = engine.ThreadPanicError
	// CrashPlan schedules crash-stop node failures (Config.Net.Crash).
	CrashPlan = network.CrashPlan
	// CrashTime is one scheduled node death of a CrashPlan.
	CrashTime = network.CrashTime
	// LostPageError reports an access to a page whose only valid copy died
	// with its crashed home node.
	LostPageError = proto.LostPageError
)

// PlanFromSeed derives a deterministic one-node crash plan from a seed (see
// network.PlanFromSeed): victim in [1, nodes), crash time in the given
// window.
func PlanFromSeed(seed uint64, nodes int, minCycles, maxCycles uint64) *CrashPlan {
	return network.PlanFromSeed(seed, nodes, engine.Time(minCycles), engine.Time(maxCycles))
}

// UnboundedRetries disables the reliable layer's retry budget (see
// ReliableParams.MaxRetries); only the progress watchdog then bounds a dead
// link.
const UnboundedRetries = network.UnboundedRetries

// TraceRecorder records time-stamped protocol events when attached to
// Config.Trace (see internal/trace for the analysis helpers).
type TraceRecorder = trace.Recorder

// NewTraceRecorder creates a bounded protocol event recorder.
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// Proc is the per-processor context applications are written against; World
// is the setup-time view. Use them to write custom workloads (see
// examples/custom_app).
type (
	Proc  = shm.Proc
	World = shm.World
)

// Stats types re-exported for result analysis.
type (
	// RunStats aggregates a whole run.
	RunStats = stats.Run
	// ProcStats is one processor's counters and time breakdown.
	ProcStats = stats.Proc
	// Speedups bundles uniprocessor/parallel/ideal speedup figures.
	Speedups = stats.Speedups
)

// ComputeSpeedups derives ideal and achievable speedups from a uniprocessor
// time and a parallel run.
func ComputeSpeedups(uniproc uint64, run *RunStats) Speedups {
	return stats.ComputeSpeedups(uniproc, run)
}

// Slowdown returns the percentage slowdown of tb relative to ta (negative =
// speedup), the paper's Table 3 metric.
func Slowdown(ta, tb uint64) float64 { return stats.Slowdown(ta, tb) }

// Workload parameter presets, re-exported per application. The Small
// variants are used by the test suite; the Default variants by the
// benchmark harness.
type (
	FFTParams      = fft.Params
	LUParams       = lu.Params
	OceanParams    = ocean.Params
	RadixParams    = radix.Params
	WaterParams    = water.Params
	BarnesParams   = barnes.Params
	RaytraceParams = raytrace.Params
	VolrendParams  = volrend.Params
)

// FFT builds the FFT workload (all-to-all transposes).
func FFT(p FFTParams) App { return fft.New(p) }

// FFTSmall and FFTDefault size the FFT problem.
func FFTSmall() FFTParams { return fft.Small() }

// FFTDefault returns the benchmark-sized FFT problem.
func FFTDefault() FFTParams { return fft.Default() }

// LU builds the LU-contiguous workload (single-writer blocks).
func LU(p LUParams) App { return lu.New(p) }

// LUSmall returns the test-sized LU problem.
func LUSmall() LUParams { return lu.Small() }

// LUDefault returns the benchmark-sized LU problem.
func LUDefault() LUParams { return lu.Default() }

// Ocean builds the Ocean-contiguous workload (nearest-neighbour grid).
func Ocean(p OceanParams) App { return ocean.New(p) }

// OceanSmall returns the test-sized Ocean problem.
func OceanSmall() OceanParams { return ocean.Small() }

// OceanDefault returns the benchmark-sized Ocean problem.
func OceanDefault() OceanParams { return ocean.Default() }

// Radix builds the Radix sort workload (scattered remote writes).
func Radix(p RadixParams) App { return radix.New(p) }

// RadixSmall returns the test-sized Radix problem.
func RadixSmall() RadixParams { return radix.Small() }

// RadixDefault returns the benchmark-sized Radix problem.
func RadixDefault() RadixParams { return radix.Default() }

// Water builds either Water variant (per-molecule lock updates / spatial
// cells).
func Water(p WaterParams) App { return water.New(p) }

// WaterNsquaredSmall returns the test-sized all-pairs Water problem.
func WaterNsquaredSmall() WaterParams { return water.SmallNsquared() }

// WaterNsquaredDefault returns the benchmark-sized all-pairs Water problem.
func WaterNsquaredDefault() WaterParams { return water.DefaultNsquared() }

// WaterSpatialSmall returns the test-sized cell-decomposition Water problem.
func WaterSpatialSmall() WaterParams { return water.SmallSpatial() }

// WaterSpatialDefault returns the benchmark-sized cell-decomposition Water
// problem.
func WaterSpatialDefault() WaterParams { return water.DefaultSpatial() }

// Barnes builds either Barnes-Hut variant (rebuild with locks / space
// without).
func Barnes(p BarnesParams) App { return barnes.New(p) }

// BarnesRebuildSmall returns the test-sized locking Barnes problem.
func BarnesRebuildSmall() BarnesParams { return barnes.SmallRebuild() }

// BarnesRebuildDefault returns the benchmark-sized locking Barnes problem.
func BarnesRebuildDefault() BarnesParams { return barnes.DefaultRebuild() }

// BarnesSpaceSmall returns the test-sized lock-free Barnes problem.
func BarnesSpaceSmall() BarnesParams { return barnes.SmallSpace() }

// BarnesSpaceDefault returns the benchmark-sized lock-free Barnes problem.
func BarnesSpaceDefault() BarnesParams { return barnes.DefaultSpace() }

// Raytrace builds the ray tracing workload (task queues with stealing).
func Raytrace(p RaytraceParams) App { return raytrace.New(p) }

// RaytraceSmall returns the test-sized Raytrace problem.
func RaytraceSmall() RaytraceParams { return raytrace.Small() }

// RaytraceDefault returns the benchmark-sized Raytrace problem.
func RaytraceDefault() RaytraceParams { return raytrace.Default() }

// Volrend builds the volume rendering workload (read-only volume, task
// stealing).
func Volrend(p VolrendParams) App { return volrend.New(p) }

// VolrendSmall returns the test-sized Volrend problem.
func VolrendSmall() VolrendParams { return volrend.Small() }

// VolrendDefault returns the benchmark-sized Volrend problem.
func VolrendDefault() VolrendParams { return volrend.Default() }

// Workload names one of the paper's ten applications with both problem
// sizes.
type Workload struct {
	Name    string
	Small   func() App
	Default func() App
}

// Workloads returns the paper's application suite in its presentation
// order.
func Workloads() []Workload {
	return []Workload{
		{"FFT", func() App { return FFT(FFTSmall()) }, func() App { return FFT(FFTDefault()) }},
		{"LU", func() App { return LU(LUSmall()) }, func() App { return LU(LUDefault()) }},
		{"Ocean", func() App { return Ocean(OceanSmall()) }, func() App { return Ocean(OceanDefault()) }},
		{"Water-nsq", func() App { return Water(WaterNsquaredSmall()) }, func() App { return Water(WaterNsquaredDefault()) }},
		{"Water-sp", func() App { return Water(WaterSpatialSmall()) }, func() App { return Water(WaterSpatialDefault()) }},
		{"Radix", func() App { return Radix(RadixSmall()) }, func() App { return Radix(RadixDefault()) }},
		{"Raytrace", func() App { return Raytrace(RaytraceSmall()) }, func() App { return Raytrace(RaytraceDefault()) }},
		{"Volrend", func() App { return Volrend(VolrendSmall()) }, func() App { return Volrend(VolrendDefault()) }},
		{"Barnes-reb", func() App { return Barnes(BarnesRebuildSmall()) }, func() App { return Barnes(BarnesRebuildDefault()) }},
		{"Barnes-sp", func() App { return Barnes(BarnesSpaceSmall()) }, func() App { return Barnes(BarnesSpaceDefault()) }},
	}
}
