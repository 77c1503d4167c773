package interrupts

import (
	"svmsim/internal/engine"
	"svmsim/internal/node"
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
	// issue/delivery cost, but requests wait up to PollInterval and every
	// processor pays a continuous instrumentation tax (see
	// node.Params.PollTaxPerMille).
	Polling
	// Dedicated reserves one processor per node for protocol processing:
	// requests dispatch to it immediately at a small cost, and it runs no
	// application work (the capacity trade-off).
	Dedicated
)

// PollParams configure the Polling and Dedicated modes.
type PollParams struct {
	// IntervalCycles is the polling period in cycles (Polling mode).
	IntervalCycles engine.Time
	// DispatchCycles is the cost to pick a request up at a poll boundary
	// (Polling) or to hand it to the dedicated processor (Dedicated).
	DispatchCycles engine.Time
	// CheckCycles is the cost of one (usually empty) poll check; every
	// processor pays it once per Interval of execution, applied as the
	// node.Params.PollTaxPerMille inflation.
	CheckCycles engine.Time
}

// DefaultPollParams returns the baseline polling configuration: a 1000-cycle
// interval with a 100-cycle dispatch and a 20-cycle check, matching an
// instrumented-application polling scheme.
func DefaultPollParams() PollParams {
	return PollParams{IntervalCycles: 1000, DispatchCycles: 100, CheckCycles: 20}
}

// raisePolling schedules handler at the node's next poll boundary on the
// static victim (the polling processor).
func (c *Controller) raisePolling(name string, handler func(t *engine.Thread, victim *node.Processor)) {
	now := c.n.Sim.Now()
	interval := c.Poll.IntervalCycles
	if interval == 0 {
		interval = 1
	}
	boundary := (now/interval + 1) * interval
	c.spawnHandler("poll", name, c.n.Procs[0], boundary-now, c.Poll.DispatchCycles, handler)
}

// raiseDedicated dispatches handler to the node's reserved protocol
// processor (the last local processor) with only the dispatch cost. The
// reserved processor runs no application work, so nothing is stolen from the
// computation.
func (c *Controller) raiseDedicated(name string, handler func(t *engine.Thread, victim *node.Processor)) {
	c.spawnHandler("proto", name, c.n.Procs[len(c.n.Procs)-1], c.Poll.DispatchCycles, 0, handler)
}
