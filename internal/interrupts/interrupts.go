// Package interrupts models interrupt issue and delivery on the SMP nodes of
// the simulated cluster. Per the paper, interrupts are raised only when
// remote requests (page fetches, lock acquires) arrive at a node; replies
// are deposited directly and polled for. The interrupt cost parameter is
// split into an issue half (the time from the NI raising the interrupt until
// the target CPU starts the context switch) and a delivery half (context
// switch and OS processing on the victim CPU). Delivery is statically bound
// to processor 0 of each node by default; a round-robin scheme is available
// as the paper's variant.
package interrupts

import (
	"fmt"

	"svmsim/internal/engine"
	"svmsim/internal/node"
)

// Policy selects the interrupt delivery target within a node.
type Policy int

const (
	// Static delivers every interrupt to processor 0 (the paper's default).
	Static Policy = iota
	// RoundRobin rotates delivery across the node's processors.
	RoundRobin
)

// Controller is the per-node interrupt controller.
type Controller struct {
	n *node.Node

	// IssueCycles and DeliverCycles are the two halves of the interrupt cost
	// parameter; the paper's "total interrupt cost" is their sum.
	IssueCycles   engine.Time
	DeliverCycles engine.Time

	policy Policy
	rr     int

	// Mode selects interrupt, polling or dedicated-processor handling of
	// requests.
	Mode Handling

	// names caches handler thread names by {prefix, request kind}.
	names map[[2]string]string
	// free holds handlerRuns whose handlers have finished, for reuse.
	free []*handlerRun
}

// New creates a controller for n with the given per-half cost.
func New(n *node.Node, issue, deliver engine.Time, policy Policy) *Controller {
	return &Controller{n: n, IssueCycles: issue, DeliverCycles: deliver, policy: policy}
}

// threadName returns the name of a handler thread for a request of kind,
// such as "intr-page@n1", building it once per controller, prefix and kind.
// Deadlock and stall errors list these names.
func (c *Controller) threadName(prefix, kind string) string {
	k := [2]string{prefix, kind}
	if name, ok := c.names[k]; ok {
		return name
	}
	if c.names == nil {
		c.names = make(map[[2]string]string)
	}
	name := fmt.Sprintf("%s-%s@n%d", prefix, kind, c.n.ID)
	c.names[k] = name
	return name
}

func (c *Controller) pick() *node.Processor {
	switch c.policy {
	case RoundRobin:
		p := c.n.Procs[c.rr%len(c.n.Procs)]
		c.rr++
		return p
	default:
		return c.n.Procs[0]
	}
}

// Raise delivers an interrupt and runs handler on the victim processor. The
// handler's execution time (delivery cost plus protocol work, including any
// bus or NI waits it performs) is charged as stolen from the application
// running on that CPU. Raise returns immediately; the handler runs
// asynchronously in its own thread.
func (c *Controller) Raise(name string, handler func(t *engine.Thread, victim *node.Processor)) {
	switch c.Mode {
	case Polling:
		c.raisePolling(name, handler)
	case Dedicated:
		c.raiseDedicated(name, handler)
	default:
		// The issue half is signal propagation and does not occupy the
		// victim CPU; the delivery half does.
		c.spawnHandler("intr", name, c.pick(), c.IssueCycles, c.DeliverCycles, handler)
	}
}

// spawnHandler runs handler on victim in its own thread, the one body every
// handling mode shares: wait out before, then serialize with the victim's
// other handlers, and charge after plus the handler's own time as stolen
// from the application on that CPU. The thread is named for prefix and
// the request kind. It starts with that preamble as one program and enters
// its coroutine only for the handler.
func (c *Controller) spawnHandler(prefix, name string, victim *node.Processor, before, after engine.Time, handler func(t *engine.Thread, victim *node.Processor)) {
	var h *handlerRun
	if n := len(c.free); n > 0 {
		h, c.free = c.free[n-1], c.free[:n-1]
	} else {
		h = &handlerRun{c: c}
		h.body = h.run
	}
	h.victim, h.before, h.after, h.handler, h.queued = victim, before, after, handler, false
	c.n.Sim.NewThread(c.threadName(prefix, name)).Start(h, h.body)
}

// handlerRun is one raised request on its way through a handler thread.
// The controller reuses it once the handler has finished.
type handlerRun struct {
	c             *Controller
	victim        *node.Processor
	before, after engine.Time
	handler       func(t *engine.Thread, victim *node.Processor)
	start         engine.Time // when the handler took the victim's CPU
	queued        bool        // the preamble has reached HandlerRes
	body          func(t *engine.Thread)
}

// Continue implements engine.Continuation for the preamble: wait out before
// and take the victim's HandlerRes, keeping it; at the grant, enter the
// handler bracket and wait out after.
func (h *handlerRun) Continue(dst []engine.Op) []engine.Op {
	if !h.queued {
		h.queued = true
		if h.before > 0 {
			dst = append(dst, engine.Op{Cycles: h.before})
		}
		return append(dst, engine.Op{Res: h.victim.HandlerRes, Keep: true, Then: h})
	}
	h.victim.HandlerEnter()
	h.start = h.c.n.Sim.Now()
	if h.after > 0 {
		dst = append(dst, engine.Op{Cycles: h.after})
	}
	return dst
}

// run is the handler thread's body, after the preamble.
func (h *handlerRun) run(t *engine.Thread) {
	h.handler(t, h.victim)
	h.victim.Stats.Interrupts++ // under polling and dedicated: serviced requests
	h.victim.HandlerExit(h.c.n.Sim.Now() - h.start)
	h.victim.HandlerRes.Release()
	h.handler = nil
	h.c.free = append(h.c.free, h)
}
