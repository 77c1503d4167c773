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
	"svmsim/internal/network"
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

// Handler serves raised requests on handler threads: t is the handler
// thread, victim the processor whose CPU it runs on, and m the request (nil
// for a request with no message, such as a heartbeat round). It is a
// long-lived model object, so raising a request allocates no closure.
type Handler interface {
	HandleRequest(t *engine.Thread, victim *node.Processor, m *network.Message)
}

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

	// pools holds the handler threads by {prefix, request kind}.
	pools map[[2]string]*handlerPool
}

// handlerPool is the handler threads of one name, such as "intr-page@n1":
// deadlock and stall errors list that name. free holds the ones whose
// handlers have returned, ready for the next request of the kind.
type handlerPool struct {
	name string
	free []*handlerRun
}

// New creates a controller for n with the given per-half cost.
func New(n *node.Node, issue, deliver engine.Time, policy Policy) *Controller {
	return &Controller{n: n, IssueCycles: issue, DeliverCycles: deliver, policy: policy}
}

// pool returns the handler pool for requests of kind under prefix, making it
// on first use.
func (c *Controller) pool(prefix, kind string) *handlerPool {
	k := [2]string{prefix, kind}
	if hp, ok := c.pools[k]; ok {
		return hp
	}
	if c.pools == nil {
		c.pools = make(map[[2]string]*handlerPool)
	}
	hp := &handlerPool{name: fmt.Sprintf("%s-%s@n%d", prefix, kind, c.n.ID)}
	c.pools[k] = hp
	return hp
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

// Raise delivers an interrupt for a request of kind and runs h on the victim
// processor with m. The handler's execution time (delivery cost plus
// protocol work, including any bus or NI waits it performs) is charged as
// stolen from the application running on that CPU. Raise returns
// immediately; the handler runs asynchronously on a handler thread named for
// the handling mode and kind (such as "intr-page@n1"), which a later request
// of the same kind reuses once the handler has returned.
func (c *Controller) Raise(kind string, h Handler, m *network.Message) {
	switch c.Mode {
	case Polling:
		c.raisePolling(kind, h, m)
	case Dedicated:
		c.raiseDedicated(kind, h, m)
	default:
		// The issue half is signal propagation and does not occupy the
		// victim CPU; the delivery half does.
		c.spawnHandler("intr", kind, c.pick(), c.IssueCycles, c.DeliverCycles, h, m)
	}
}

// spawnHandler runs h on victim on a handler thread, the one body every
// handling mode shares: wait out before, then serialize with the victim's
// other handlers, and charge after plus the handler's own time as stolen
// from the application on that CPU. The thread, named for prefix and the
// request kind, comes from the kind's pool or is made anew. It starts with
// that preamble as one program and enters its coroutine only for the
// handler.
func (c *Controller) spawnHandler(prefix, kind string, victim *node.Processor, before, after engine.Time, h Handler, m *network.Message) {
	hp := c.pool(prefix, kind)
	var r *handlerRun
	if n := len(hp.free); n > 0 {
		r, hp.free = hp.free[n-1], hp.free[:n-1]
	} else {
		r = &handlerRun{c: c, pool: hp, th: c.n.Sim.NewThread(hp.name)}
		r.body = r.run
	}
	r.victim, r.before, r.after, r.h, r.m, r.queued = victim, before, after, h, m, false
	r.th.Start(r, r.body)
}

// handlerRun is one handler thread and the request it serves. It goes back
// to its pool only once its handler has returned, in the dispatch that ends
// the thread's burst: the thread waits for one event at a time, so none of
// its events is left queued to reach the next request. A handler that never
// returns (parked at teardown, or on a crashed node) keeps its thread.
type handlerRun struct {
	c             *Controller
	pool          *handlerPool
	th            *engine.Thread
	victim        *node.Processor
	before, after engine.Time
	h             Handler
	m             *network.Message
	start         engine.Time // when the handler took the victim's CPU
	queued        bool        // the preamble has reached HandlerRes
	body          func(t *engine.Thread)
}

// Continue implements engine.Continuation for the preamble: wait out before
// and take the victim's HandlerRes, keeping it; at the grant, enter the
// handler bracket and wait out after.
func (r *handlerRun) Continue(dst []engine.Op) []engine.Op {
	if !r.queued {
		r.queued = true
		if r.before > 0 {
			dst = append(dst, engine.Op{Cycles: r.before})
		}
		return append(dst, engine.Op{Res: r.victim.HandlerRes, Keep: true, Then: r})
	}
	r.victim.HandlerEnter()
	r.start = r.c.n.Sim.Now()
	if r.after > 0 {
		dst = append(dst, engine.Op{Cycles: r.after})
	}
	return dst
}

// run is the handler thread's body, after the preamble.
func (r *handlerRun) run(t *engine.Thread) {
	r.h.HandleRequest(t, r.victim, r.m)
	r.victim.Stats.Interrupts++ // under polling and dedicated: serviced requests
	r.victim.HandlerExit(r.c.n.Sim.Now() - r.start)
	r.victim.HandlerRes.Release()
	r.h, r.m = nil, nil
	r.pool.free = append(r.pool.free, r)
}
