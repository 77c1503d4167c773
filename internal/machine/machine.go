// Package machine assembles full cluster configurations (Table 1's
// parameter sets) and runs SPMD applications on them, collecting the
// statistics the paper's tables and figures are computed from.
package machine

import (
	"fmt"

	"svmsim/internal/engine"
	"svmsim/internal/interrupts"
	"svmsim/internal/network"
	"svmsim/internal/node"
	"svmsim/internal/proto"
	"svmsim/internal/shm"
	"svmsim/internal/stats"
	"svmsim/internal/trace"
)

// Config is one point in the communication-parameter space plus the fixed
// architecture.
type Config struct {
	Procs        int
	ProcsPerNode int
	// HeapBytes is a bound, not an allocation: Alloc panics past it, and
	// it sizes the page tables. Each node's memory image covers only the
	// pages the application has allocated. Validate rejects a page larger
	// than the heap.
	HeapBytes uint64

	Node  node.Params
	Net   network.Params
	Proto proto.Params

	// IntrHalfCostCycles is the interrupt cost per half (issue and delivery each
	// cost this much; the paper's "total interrupt cost" is twice this).
	IntrHalfCostCycles engine.Time
	IntrPolicy         interrupts.Policy

	// Requests selects how incoming requests are handled: interrupts (the
	// paper's baseline), polling, or a dedicated protocol processor per
	// node (the paper's proposed interrupt-avoidance schemes).
	Requests interrupts.Handling

	// NIServePages serves page requests on the programmable NI itself.
	NIServePages bool
	// NIsPerNode replicates the network interface and its I/O bus.
	NIsPerNode int

	// MaxCycles bounds simulated time (progress watchdog): a run whose
	// event queue never drains — e.g. a retransmit storm on a faulty
	// network — stops with a structured engine.StallError carrying
	// per-processor diagnostics instead of spinning. Zero disables it.
	MaxCycles engine.Time

	// StallCheckCycles enables the engine's quiescence watchdog: a window
	// of this many cycles with no thread progress while threads remain
	// live is reported as a stall. Zero disables it.
	StallCheckCycles engine.Time

	// Trace, when non-nil, records time-stamped protocol events (see
	// internal/trace); nil disables recording at zero cost.
	Trace *trace.Recorder
}

// Achievable returns the paper's "achievable" configuration: aggressive but
// realistic values for current (1997-era, relative to processor speed)
// systems. See DESIGN.md for the reconstruction of absolute values.
func Achievable() Config {
	return Config{
		Procs:        16,
		ProcsPerNode: 4,
		HeapBytes:    16 << 20,
		Node:         node.DefaultParams(),
		Net: network.Params{
			HostOverheadCycles: 500,
			NIOccupancyCycles:  200,
			IOBytesPerCycle:    0.5,
			LinkBytesPerCycle:  2.0,
			LinkLatencyCycles:  50,
			MaxPacketBytes:     2048,
			HeaderBytes:        32,
		},
		Proto:              proto.DefaultParams(),
		IntrHalfCostCycles: 500,
	}
}

// Best returns the paper's "best" configuration: each communication
// parameter at the best value in the studied range (zero overheads, I/O bus
// at memory-bus bandwidth); contention is still modeled.
func Best() Config {
	c := Achievable()
	c.Net.HostOverheadCycles = 0
	c.Net.NIOccupancyCycles = 0
	c.Net.IOBytesPerCycle = 2.0
	c.IntrHalfCostCycles = 0
	return c
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.Procs <= 0 || c.ProcsPerNode <= 0 || c.Procs%c.ProcsPerNode != 0 {
		return fmt.Errorf("machine: bad processor topology %d/%d", c.Procs, c.ProcsPerNode)
	}
	if c.Procs/c.ProcsPerNode > 1 && c.Net.IOBytesPerCycle <= 0 {
		return fmt.Errorf("machine: non-positive I/O bandwidth")
	}
	if c.Proto.PageBytes <= 0 || c.Proto.PageBytes%c.Node.LineBytes != 0 {
		return fmt.Errorf("machine: page size %d not a multiple of line size", c.Proto.PageBytes)
	}
	if uint64(c.Proto.PageBytes) > c.HeapBytes {
		return fmt.Errorf("machine: page size %d exceeds the shared heap of %d bytes", c.Proto.PageBytes, c.HeapBytes)
	}
	if c.Requests == interrupts.Dedicated && c.ProcsPerNode < 2 {
		return fmt.Errorf("machine: dedicated protocol processor needs >= 2 processors per node")
	}
	if c.Net.Crash != nil {
		if c.Proto.Mode == proto.AURC {
			// AURC's release fence counts update acks without per-page
			// attribution, so recovery cannot retire the acks a dead home
			// will never send; the fence would hang forever.
			return fmt.Errorf("machine: crash plans require HLRC (AURC update acks are not attributable per page)")
		}
		nodes := c.Procs / c.ProcsPerNode
		for _, ct := range c.Net.Crash.Schedule() {
			if ct.Node < 0 || ct.Node >= nodes {
				return fmt.Errorf("machine: crash plan names node %d outside [0,%d)", ct.Node, nodes)
			}
		}
		if len(c.Net.Crash.AtCycles) >= nodes {
			return fmt.Errorf("machine: crash plan kills all %d nodes", nodes)
		}
	}
	return nil
}

// App is a simulated SPMD application: Setup allocates shared state on the
// world (run once, before time starts), Body runs on every processor, and
// Check validates the computed results after the run (returning an error
// fails the run).
type App struct {
	Name  string
	Setup func(w *shm.World) any
	Body  func(c *shm.Proc, state any)
	Check func(w *shm.World, state any) error
}

// Result bundles a finished run.
type Result struct {
	Run   *stats.Run
	State any
	World *shm.World
}

// Run executes app on the configuration and returns the collected stats.
func Run(cfg Config, app App) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := engine.New()
	sim.MaxCycles = cfg.MaxCycles
	sim.StallCheckCycles = cfg.StallCheckCycles
	nodes := cfg.Procs / cfg.ProcsPerNode
	nodePrm := cfg.Node
	if cfg.Requests == interrupts.Polling {
		// Every processor pays the poll-check instrumentation tax: a
		// 20-cycle check once per 1000-cycle poll interval.
		nodePrm.PollTaxPerMille = 20
	}
	sys := proto.NewSystem(sim, proto.SystemConfig{
		Nodes:             nodes,
		ProcsPerNode:      cfg.ProcsPerNode,
		HeapBytes:         cfg.HeapBytes,
		NodePrm:           nodePrm,
		NetPrm:            cfg.Net,
		ProtoPrm:          cfg.Proto,
		IntrIssueCycles:   cfg.IntrHalfCostCycles,
		IntrDeliverCycles: cfg.IntrHalfCostCycles,
		IntrPolicy:        cfg.IntrPolicy,
		Requests:          cfg.Requests,
		NIServePages:      cfg.NIServePages,
		NIsPerNode:        cfg.NIsPerNode,
		Trace:             cfg.Trace,
	})
	w := &shm.World{Sys: sys}
	state := app.Setup(w)

	// Under the dedicated-protocol-processor scheme, the last processor of
	// each node runs no application work; the application sees a smaller,
	// contiguously-numbered machine (the capacity cost of the scheme).
	var appProcs []int
	for gid := 0; gid < cfg.Procs; gid++ {
		if cfg.Requests == interrupts.Dedicated && gid%cfg.ProcsPerNode == cfg.ProcsPerNode-1 && cfg.Procs > 1 {
			continue
		}
		appProcs = append(appProcs, gid)
	}

	run := stats.NewRun(cfg.Procs, nodes)
	for gid := 0; gid < cfg.Procs; gid++ {
		sys.Procs[gid].Bind(nil, &run.Procs[gid])
	}

	// With a crash plan (or the failure detector's periodic ticks) the event
	// queue never drains on its own, so the run ends by counting survivor
	// completions and stopping the engine explicitly. Crashing nodes'
	// processors are excluded from the count: their threads are killed at
	// the crash instant and never finish.
	crash := cfg.Net.Crash
	stopWhenDone := crash != nil || cfg.Proto.HeartbeatIntervalCycles > 0
	willCrash := make([]bool, nodes)
	if crash != nil {
		for _, ct := range crash.Schedule() {
			willCrash[ct.Node] = true
		}
	}
	nodeThreads := make([][]*engine.Thread, nodes)
	expected, done := 0, 0

	var maxEnd engine.Time
	for i, gid := range appProcs {
		appID, g := i, gid
		nid := g / cfg.ProcsPerNode
		counts := !willCrash[nid]
		if counts {
			expected++
		}
		th := sim.Spawn(fmt.Sprintf("proc%d", g), func(t *engine.Thread) {
			c := shm.NewProc(w, sys.Procs[g], appID, len(appProcs), t)
			c.P.Bind(t, &run.Procs[g])
			app.Body(c, state)
			c.P.Sync(t)
			c.P.Stats.Busy = uint64(sim.Now())
			if sim.Now() > maxEnd {
				maxEnd = sim.Now()
			}
			if counts {
				done++
				if stopWhenDone && done == expected {
					sim.Stop()
				}
			}
		})
		nodeThreads[nid] = append(nodeThreads[nid], th)
	}
	if crash != nil {
		for _, ct := range crash.Schedule() {
			sim.AtTarget(ct.AtCycles, &crashEvent{
				sim: sim, sys: sys, node: ct.Node, threads: nodeThreads[ct.Node],
			}, nil)
		}
	}
	// On a stall, report where each processor last blocked (the protocol
	// breadcrumb) and whether an interrupt handler holds it.
	sim.OnStall = func() []string {
		var diag []string
		for gid, p := range sys.Procs {
			where := p.Where.String()
			if where == "" {
				where = "running"
			}
			if h := p.HandlerActive(); h > 0 {
				where = fmt.Sprintf("%s [%d handlers active]", where, h)
			}
			diag = append(diag, fmt.Sprintf("proc%d: %s", gid, where))
		}
		return diag
	}

	res := &Result{Run: run, State: state, World: w}
	err := sim.Run()
	// Fold the NI transport counters into the run stats, on failures too —
	// retransmit counts are part of a fault diagnosis.
	for _, channel := range sys.NIs {
		for _, ni := range channel {
			run.Net.Dropped += ni.Dropped
			run.Net.DupsInjected += ni.DupsInjected
			run.Net.Dups += ni.Dups
			run.Net.Retransmits += ni.Retransmits
			run.Net.AcksSent += ni.AcksSent
			run.Net.NacksSent += ni.NacksSent
			run.Net.TimeoutFires += ni.TimeoutFires
			run.Net.QueueStalls += ni.QueueStalls
			run.Net.CrashDrops += ni.CrashDrops
		}
	}
	run.Recovery = sys.Recovery()
	if err != nil {
		return res, fmt.Errorf("machine: %s: %w", app.Name, err)
	}
	// Under a crash plan, Cycles is the degraded-mode completion time: the
	// end of the last surviving processor.
	run.Cycles = uint64(maxEnd)
	if app.Check != nil && crash == nil {
		// A crashed node's share of the computation is lost by design, so
		// full-result checks only apply to fault-free runs; degraded runs
		// are validated by completion and determinism instead.
		if err := app.Check(w, state); err != nil {
			return res, fmt.Errorf("machine: %s result check: %w", app.Name, err)
		}
	}
	return res, nil
}

// crashEvent is the typed target of one node's scheduled crash-stop: at the
// crash instant it silences the node's NIs, discards its in-flight traffic
// at every peer, and kills its application threads mid-instruction.
type crashEvent struct {
	sim     *engine.Sim
	sys     *proto.System
	node    int
	threads []*engine.Thread
}

// HandleEvent implements engine.EventTarget (scheduler context: no yields).
func (c *crashEvent) HandleEvent(any) {
	for _, channel := range c.sys.NIs {
		for _, ni := range channel {
			ni.MarkPeerCrashed(c.node)
		}
	}
	for _, ni := range c.sys.NIs[c.node] {
		ni.Crash()
	}
	for _, t := range c.threads {
		c.sim.Kill(t)
	}
}

// Uniprocessor derives the 1-processor configuration used as the speedup
// baseline (no SVM activity: everything is local).
func Uniprocessor(cfg Config) Config {
	cfg.Procs = 1
	cfg.ProcsPerNode = 1
	return cfg
}
