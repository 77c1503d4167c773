// Package trace records time-stamped protocol events from a simulation run:
// page faults and fetches, lock and barrier activity, the lock protocol's
// requests, grants and owner notices, diffs, updates and interrupts. It is
// the one protocol trace: a regression test of the protocol asserts on the
// events it records. Recording is optional (nil recorder = zero cost) and bounded;
// the package also provides the analysis helpers used by cmd/svmsim -trace
// (latency extraction, percentiles, per-kind counts).
package trace

import (
	"fmt"
	"io"
	"sort"

	"svmsim/internal/engine"
)

// Kind classifies a protocol event.
type Kind uint8

const (
	// FetchStart marks a processor faulting on an invalid page (Arg1 =
	// page). Every faulting processor records one, including a processor
	// that joins a fetch already in flight from its node, so there are more
	// of them than PageFetches.
	FetchStart Kind = iota
	// FetchEnd marks the page being valid again for the faulting processor
	// (Arg1 = page).
	FetchEnd
	// AcquireStart marks a lock acquire beginning (Arg1 = lock).
	AcquireStart
	// AcquireEnd marks the lock being held (Arg1 = lock, Arg2 = 1 if the
	// acquire was remote).
	AcquireEnd
	// Release marks a lock release (Arg1 = lock).
	Release
	// BarrierEnter marks arrival at a barrier.
	BarrierEnter
	// BarrierExit marks departure from a barrier.
	BarrierExit
	// Diff marks an HLRC diff creation (Arg1 = page, Arg2 = words).
	Diff
	// Update marks an AURC update flush (Arg1 = destination node, Arg2 =
	// words).
	Update
	// Interrupt marks a page or lock request interrupting its node's host
	// (Arg1 = node, Arg2 = the network message kind). A page request the NI
	// serves itself (NIServePages) interrupts nothing and is not recorded.
	Interrupt
	// The lock protocol's steps. In each, Arg1 is the lock and Arg2 the
	// peer node.
	//
	// LockRequest marks a lock request handler running (Proc = the
	// handler's victim processor, Arg2 = the requesting node).
	LockRequest
	// LockGrant marks a node sending the token (Proc = the granting
	// processor, or -1 for the protocol itself; Arg2 = the grantee).
	LockGrant
	// GrantDeposit marks a grant landing at its node (Arg2 = that node).
	GrantDeposit
	// OwnerNotice marks the manager learning the token's new owner (Arg2 =
	// the owner).
	OwnerNotice
	numKinds
)

var kindNames = [numKinds]string{
	"fetch-start", "fetch-end", "acquire-start", "acquire-end", "release",
	"barrier-enter", "barrier-exit", "diff", "update", "interrupt",
	"lock-request", "lock-grant", "grant-deposit", "owner-notice",
}

// String returns the kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded protocol event.
type Event struct {
	At   engine.Time // simulated cycle
	Proc int32       // global processor ID (-1 for node-level events)
	Kind Kind
	Arg1 int64
	Arg2 int64
}

// Recorder collects events up to a capacity; further events are counted but
// dropped (the Dropped counter reports how many).
type Recorder struct {
	Events  []Event
	Cap     int
	Dropped uint64
}

// NewRecorder creates a recorder holding up to capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Recorder{Cap: capacity}
}

// Emit records one event; nil recorders are safe to call.
func (r *Recorder) Emit(at engine.Time, proc int32, k Kind, a1, a2 int64) {
	if r == nil {
		return
	}
	if len(r.Events) >= r.Cap {
		r.Dropped++
		return
	}
	r.Events = append(r.Events, Event{At: at, Proc: proc, Kind: k, Arg1: a1, Arg2: a2})
}

// Counts returns the number of events per kind.
func (r *Recorder) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.Events {
		out[e.Kind]++
	}
	return out
}

// Dump writes the last n events (or all, if n <= 0) in a readable form.
func (r *Recorder) Dump(w io.Writer, n int) {
	evs := r.Events
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	for _, e := range evs {
		fmt.Fprintf(w, "[%12d] proc%-3d %-14s arg1=%d arg2=%d\n", e.At, e.Proc, e.Kind, e.Arg1, e.Arg2)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(w, "(%d events dropped beyond capacity %d)\n", r.Dropped, r.Cap)
	}
}

// Latencies pairs start/end kinds per (processor, Arg1) and returns the
// elapsed cycles of each completed span, in completion order. Unmatched
// starts are ignored.
func (r *Recorder) Latencies(start, end Kind) []uint64 {
	type key struct {
		proc int32
		arg  int64
	}
	open := make(map[key][]engine.Time)
	var out []uint64
	for _, e := range r.Events {
		k := key{e.Proc, e.Arg1}
		switch e.Kind {
		case start:
			open[k] = append(open[k], e.At)
		case end:
			if stack := open[k]; len(stack) > 0 {
				out = append(out, uint64(e.At-stack[len(stack)-1]))
				open[k] = stack[:len(stack)-1]
			}
		}
	}
	return out
}

// Percentile returns the p-th percentile (0-100) of xs, or 0 when empty.
func Percentile(xs []uint64, p float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Summary renders per-kind counts plus fetch and lock latency percentiles.
func (r *Recorder) Summary(w io.Writer) {
	counts := r.Counts()
	fmt.Fprintf(w, "trace: %d events", len(r.Events))
	if r.Dropped > 0 {
		fmt.Fprintf(w, " (+%d dropped)", r.Dropped)
	}
	fmt.Fprintln(w)
	for k := Kind(0); k < numKinds; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(w, "  %-14s %8d\n", k, counts[k])
		}
	}
	if fl := r.Latencies(FetchStart, FetchEnd); len(fl) > 0 {
		fmt.Fprintf(w, "  fetch latency cycles: p50=%d p90=%d p99=%d max=%d (n=%d)\n",
			Percentile(fl, 50), Percentile(fl, 90), Percentile(fl, 99), Percentile(fl, 100), len(fl))
	}
	if ll := r.Latencies(AcquireStart, AcquireEnd); len(ll) > 0 {
		fmt.Fprintf(w, "  lock acquire cycles:  p50=%d p90=%d p99=%d max=%d (n=%d)\n",
			Percentile(ll, 50), Percentile(ll, 90), Percentile(ll, 99), Percentile(ll, 100), len(ll))
	}
}
