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
	// requests; Poll configures the latter two.
	Mode Handling
	Poll PollParams

	// Raised counts interrupts raised on this node.
	Raised uint64

	// names caches handler thread names by {prefix, request kind}.
	names map[[2]string]string
}

// New creates a controller for n with the given per-half cost.
func New(n *node.Node, issue, deliver engine.Time, policy Policy) *Controller {
	return &Controller{n: n, IssueCycles: issue, DeliverCycles: deliver, policy: policy, Poll: DefaultPollParams()}
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
	c.Raised++
	switch c.Mode {
	case Polling:
		c.raisePolling(name, handler)
		return
	case Dedicated:
		c.raiseDedicated(name, handler)
		return
	}
	victim := c.pick()
	c.n.Sim.Spawn(c.threadName("intr", name), func(t *engine.Thread) {
		// Issue half: signal propagation; does not occupy the victim CPU.
		if c.IssueCycles > 0 {
			t.Delay(c.IssueCycles)
		}
		// Serialize handlers on the victim CPU.
		victim.HandlerRes.Acquire(t, 0)
		victim.HandlerEnter()
		start := c.n.Sim.Now()
		if c.DeliverCycles > 0 {
			t.Delay(c.DeliverCycles)
		}
		handler(t, victim)
		victim.Stats.Interrupts++
		victim.HandlerExit(c.n.Sim.Now() - start)
		victim.HandlerRes.Release()
	})
}
