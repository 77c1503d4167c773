package interrupts

import (
	"svmsim/internal/engine"
	"svmsim/internal/network"
)

// Handling selects how incoming protocol requests reach a processor. The
// paper's Discussion section proposes polling and dedicated protocol
// processors as ways to avoid the dominant interrupt cost; both are
// implemented here as alternatives to interrupt delivery.
type Handling int

const (
	// Interrupts delivers requests via interrupts (the paper's baseline).
	Interrupts Handling = iota
	// Polling defers requests to the next poll boundary: no interrupt
	// issue/delivery cost, but requests wait up to a poll interval and
	// every processor pays a continuous instrumentation tax (see
	// node.Params.PollTaxPerMille).
	Polling
	// Dedicated reserves one processor per node for protocol processing:
	// requests dispatch to it immediately at a small cost, and it runs no
	// application work (the capacity trade-off).
	Dedicated
)

// The polling and dedicated-processor costs, matching an
// instrumented-application polling scheme. A poll check costs 20 cycles
// once per interval, which machine.Run applies as a 20 per mille
// node.Params.PollTaxPerMille.
const (
	// pollIntervalCycles is the polling period (Polling mode).
	pollIntervalCycles engine.Time = 1000
	// dispatchCycles is the cost to pick a request up at a poll boundary
	// (Polling) or to hand it to the dedicated processor (Dedicated).
	dispatchCycles engine.Time = 100
)

// raisePolling schedules h at the node's next poll boundary on the static
// victim (the polling processor).
func (c *Controller) raisePolling(kind string, h Handler, m *network.Message) {
	now := c.n.Sim.Now()
	boundary := (now/pollIntervalCycles + 1) * pollIntervalCycles
	c.spawnHandler("poll", kind, c.n.Procs[0], boundary-now, dispatchCycles, h, m)
}

// raiseDedicated dispatches h to the node's reserved protocol processor (the
// last local processor) with only the dispatch cost. The reserved processor
// runs no application work, so nothing is stolen from the computation.
func (c *Controller) raiseDedicated(kind string, h Handler, m *network.Message) {
	c.spawnHandler("proto", kind, c.n.Procs[len(c.n.Procs)-1], dispatchCycles, 0, h, m)
}
