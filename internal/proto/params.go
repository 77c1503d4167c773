// Package proto implements the paper's home-based shared virtual memory
// protocols: HLRC (home-based lazy release consistency, all-software, with
// twins and diffs) and AURC (automatic update release consistency, with
// hardware write propagation to the home). Application data really flows
// through the protocol: each node has its own image of the shared address
// space, kept coherent only by diffs/updates, page fetches, and
// write-notice invalidations, so a protocol bug produces wrong application
// results, not just wrong timing.
//
// Interrupts are used only for incoming page and lock requests, as in the
// paper; replies, diffs, acks, and barrier messages are deposited directly
// into host memory by the network interface and polled for.
package proto

import "svmsim/internal/engine"

// Mode selects the write-propagation mechanism.
type Mode int

const (
	// HLRC propagates writes as software diffs at release time.
	HLRC Mode = iota
	// AURC propagates writes eagerly as automatic updates to the home.
	AURC
)

// String returns the protocol name.
func (m Mode) String() string {
	if m == AURC {
		return "AURC"
	}
	return "HLRC"
}

// HomePolicy selects how pages are assigned home nodes.
type HomePolicy int

const (
	// FirstTouch homes a page at the node that first accesses it (the
	// paper's allocation scheme; applications initialize their partitions
	// in parallel to distribute homes).
	FirstTouch HomePolicy = iota
	// RoundRobin homes page i at node i mod N.
	RoundRobin
)

// Params are the protocol-level cost parameters. Absolute values are
// reconstructed from the paper's prose (see DESIGN.md); each is relative to
// the processor clock.
type Params struct {
	Mode      Mode
	PageBytes int
	Homes     HomePolicy

	// TLBCycles is the cost to access the TLB from a kernel handler.
	TLBCycles engine.Time
	// FaultCycles is the kernel entry/exit cost of a page protection fault
	// on the faulting processor.
	FaultCycles engine.Time
	// PageHandlerCycles is the page-request handler code cost (beyond TLB).
	PageHandlerCycles engine.Time
	// LockHandlerCycles is the lock-request handler code cost.
	LockHandlerCycles engine.Time
	// DiffWordCompareCycles is charged per word compared against the twin.
	DiffWordCompareCycles engine.Time
	// DiffWordIncludeCycles is charged per word included in a diff.
	DiffWordIncludeCycles engine.Time
	// TwinWordCycles is charged per word when copying a twin at a write
	// fault.
	TwinWordCycles engine.Time
	// InvalidatePageCycles is the per-page cost of processing a write
	// notice at acquire time (mprotect and bookkeeping).
	InvalidatePageCycles engine.Time
	// LocalLockCycles is the cost of a lock acquire satisfied within the
	// node (hardware synchronization on the SMP bus).
	LocalLockCycles engine.Time
	// LocalBarrierCycles is the per-processor cost of the intra-node
	// barrier stage.
	LocalBarrierCycles engine.Time

	// DiffWordBytes is the wire size of one diff word (offset + data).
	DiffWordBytes int
	// UpdateWordBytes is the wire size of one AURC update (address + data).
	UpdateWordBytes int
	// NoticeBytes is the wire size of one write-notice page entry.
	NoticeBytes int
	// CtlBytes is the wire size of small control payloads.
	CtlBytes int

	// AllLocal artificially satisfies every page fault locally (the
	// paper's Section 7 ablation, "disable remote page fetches"). Data is
	// teleported from the home image so results stay correct.
	AllLocal bool

	// HeartbeatIntervalCycles enables the failure detector: each node's
	// interrupt controller fires a heartbeat round this often, probing
	// every live peer. Heartbeats pay the full interrupt, host-overhead,
	// NI-occupancy and bus cost, so detection aggressiveness is itself a
	// communication parameter (the paper's interrupt-cost axis). Zero
	// disables detection, the paper's fault-free cluster.
	HeartbeatIntervalCycles engine.Time
	// SuspectTimeoutCycles is how long a peer may stay silent before it is
	// declared dead and a reconfiguration round runs. Zero means 4x the
	// heartbeat interval.
	SuspectTimeoutCycles engine.Time
}

// DefaultParams returns the baseline protocol parameters.
func DefaultParams() Params {
	return Params{
		Mode:                  HLRC,
		PageBytes:             4096,
		Homes:                 FirstTouch,
		TLBCycles:             50,
		FaultCycles:           200,
		PageHandlerCycles:     150,
		LockHandlerCycles:     150,
		DiffWordCompareCycles: 10,
		DiffWordIncludeCycles: 10,
		TwinWordCycles:        2,
		InvalidatePageCycles:  100,
		LocalLockCycles:       40,
		LocalBarrierCycles:    30,
		DiffWordBytes:         12,
		UpdateWordBytes:       12,
		NoticeBytes:           8,
		CtlBytes:              16,
	}
}

// pageState is the per-node state of one page.
type pageState uint8

const (
	pgInvalid pageState = iota
	pgReadOnly
	pgWritable // write-enabled in the current interval (twin exists iff HLRC non-home)
)

// Notice is a write notice: pages written by Origin during Interval.
type Notice struct {
	Origin   int32
	Interval uint32
	Pages    []int32
}
