// Package stats holds the counters and time-breakdown accounting that the
// paper's tables and figures are computed from. All times are processor
// cycles as plain uint64, the v1 wire schema's type: the simulator keeps
// cycles as engine.Time and converts them where it records them here
// (node.Processor.Book for the time breakdown).
package stats

import "fmt"

// TimeKind classifies where a simulated processor's cycles went. The
// breakdown mirrors the paper's analysis: compute, local (cache/memory)
// stall, data wait (remote page fetches), lock wait, barrier wait, protocol
// handler time stolen by interrupts, and host send overhead.
type TimeKind int

const (
	Compute TimeKind = iota
	LocalStall
	DataWait
	LockWait
	BarrierWait
	HandlerSteal
	SendOverhead
	DiffTime
	NumTimeKinds
)

var timeKindNames = [NumTimeKinds]string{
	"compute", "local-stall", "data-wait", "lock-wait",
	"barrier-wait", "handler", "send-overhead", "diff",
}

// String returns the time kind's short name.
func (k TimeKind) String() string {
	if k < 0 || k >= NumTimeKinds {
		return fmt.Sprintf("TimeKind(%d)", int(k))
	}
	return timeKindNames[k]
}

// Proc accumulates per-processor statistics for one simulation run.
//
// The JSON tags are a versioned wire contract (schema v1, see internal/exp's
// codec): the persistent cell cache and the svmsimd daemon both serialize
// runs in this exact shape, and a golden-file test pins the encoding.
// Renaming a tag is a breaking schema change; add new fields instead.
type Proc struct {
	Time [NumTimeKinds]uint64 `json:"time_cycles"`

	// Protocol events (Table 2).
	PageFaults  uint64 `json:"page_faults"`  // protection faults (read fetch faults + write twin faults)
	PageFetches uint64 `json:"page_fetches"` // remote page fetches
	LocalLocks  uint64 `json:"local_locks"`  // lock acquires satisfied within the node
	RemoteLocks uint64 `json:"remote_locks"` // lock acquires requiring remote messages
	Barriers    uint64 `json:"barriers"`

	// Communication (Figures 3 and 4). Counted at the sending processor,
	// including protocol handler replies it produced.
	MsgsSent  uint64 `json:"msgs_sent"`
	BytesSent uint64 `json:"bytes_sent"`

	// Memory hierarchy.
	L1Hits uint64 `json:"l1_hits"`
	L2Hits uint64 `json:"l2_hits"`
	Misses uint64 `json:"misses"`
	WBHits uint64 `json:"wb_hits"`

	// Interrupts taken on this processor (as victim).
	Interrupts uint64 `json:"interrupts"`

	// DiffsCreated / DiffWords track HLRC diff activity.
	DiffsCreated uint64 `json:"diffs_created"`
	DiffWords    uint64 `json:"diff_words"`

	// UpdatesSent tracks AURC automatic-update words sent.
	UpdatesSent uint64 `json:"updates_sent"`

	// Busy is the total busy time: end-of-run local time.
	Busy uint64 `json:"busy_cycles"`
}

// Total returns the sum of all time categories.
func (p *Proc) Total() uint64 {
	var t uint64
	for _, v := range p.Time {
		t += v
	}
	return t
}

// Net aggregates the cluster's NI transport counters: injected faults and
// the recovery layer's work (see internal/network). All zero on a perfectly
// reliable network.
type Net struct {
	// Dropped and DupsInjected count faults injected at the send side;
	// Dups counts duplicates discarded at the receive side.
	Dropped      uint64 `json:"dropped"`
	DupsInjected uint64 `json:"dups_injected"`
	Dups         uint64 `json:"dups"`
	// Retransmits, AcksSent, NacksSent and TimeoutFires account the
	// reliable-delivery layer's recovery traffic and timer activity.
	Retransmits  uint64 `json:"retransmits"`
	AcksSent     uint64 `json:"acks_sent"`
	NacksSent    uint64 `json:"nacks_sent"`
	TimeoutFires uint64 `json:"timeout_fires"`
	// QueueStalls counts posts delayed by a full outgoing NI queue.
	QueueStalls uint64 `json:"queue_stalls"`
	// CrashDrops counts wire transfers discarded because a crash-stopped
	// node was the sender or receiver.
	CrashDrops uint64 `json:"crash_drops"`
}

// Recovery aggregates the failure detector's and recovery protocol's work
// (see internal/proto). All zero when no node crashes and the detector is
// off — test-enforced, so the crash machinery is provably inert on clean
// configurations.
type Recovery struct {
	// HeartbeatsSent counts liveness probes emitted cluster-wide; each one
	// paid real interrupt, host-overhead, occupancy and bus cycles.
	HeartbeatsSent uint64 `json:"heartbeats_sent"`
	// SuspectCycles is the detection latency: cycles from the last
	// heartbeat heard from a dead node until it was declared dead, summed
	// over deaths.
	SuspectCycles uint64 `json:"suspect_cycles"`
	// PagesRehomed counts pages whose home crashed and that were re-homed
	// onto a surviving node holding a valid copy.
	PagesRehomed uint64 `json:"pages_rehomed"`
	// PagesLost counts pages whose home crashed with no surviving valid
	// copy: the next access faults with a *LostPageError.
	PagesLost uint64 `json:"pages_lost"`
	// LocksReclaimed counts locks whose token died with a node and was
	// reconstructed at a survivor.
	LocksReclaimed uint64 `json:"locks_reclaimed"`
	// ReconfigRounds counts reconfiguration rounds (one per detected
	// death).
	ReconfigRounds uint64 `json:"reconfig_rounds"`
	// RecoveryCycles is the total simulated time spent inside
	// reconfiguration rounds.
	RecoveryCycles uint64 `json:"recovery_cycles"`
}

// Run aggregates a whole simulation run.
type Run struct {
	Procs []Proc `json:"procs"`
	// Cycles is the parallel execution time (end of the last processor).
	Cycles uint64 `json:"cycles"`
	// NodeCount and ProcsPerNode record the configuration.
	NodeCount    int `json:"node_count"`
	ProcsPerNode int `json:"procs_per_node"`
	// Net is the cluster-wide network fault/recovery summary.
	Net Net `json:"net"`
	// Recovery is the cluster-wide failure-detection/recovery summary.
	Recovery Recovery `json:"recovery"`
}

// NewRun creates a Run for n processors.
func NewRun(n, nodes int) *Run {
	ppn := 1
	if nodes > 0 {
		ppn = n / nodes
	}
	return &Run{Procs: make([]Proc, n), NodeCount: nodes, ProcsPerNode: ppn}
}

// Sum returns the aggregate of a per-proc accessor over all processors.
func (r *Run) Sum(f func(*Proc) uint64) uint64 {
	var t uint64
	for i := range r.Procs {
		t += f(&r.Procs[i])
	}
	return t
}

// MeanPerProc returns the mean of a per-proc accessor.
func (r *Run) MeanPerProc(f func(*Proc) uint64) float64 {
	if len(r.Procs) == 0 {
		return 0
	}
	return float64(r.Sum(f)) / float64(len(r.Procs))
}

// ComputeCycles returns the total compute time across processors.
func (r *Run) ComputeCycles() uint64 {
	return r.Sum(func(p *Proc) uint64 { return p.Time[Compute] })
}

// PerMComputeCycles normalizes an aggregate count to "per processor per
// million compute cycles", the unit used by Table 2 and Figures 3-4.
func (r *Run) PerMComputeCycles(count uint64) float64 {
	cc := r.ComputeCycles()
	if cc == 0 {
		return 0
	}
	return float64(count) / (float64(cc) / 1e6)
}

// CriticalPath returns the max over processors of compute + local stall, the
// denominator of the paper's ideal speedup.
func (r *Run) CriticalPath() uint64 {
	var m uint64
	for i := range r.Procs {
		v := r.Procs[i].Time[Compute] + r.Procs[i].Time[LocalStall]
		if v > m {
			m = v
		}
	}
	return m
}

// EventProfile is a run's aggregate communication-event footprint: the
// observables the paper's finding 4 ties to parameter sensitivity (host
// overhead tracks messages, bandwidth tracks bytes, interrupt cost tracks
// page fetches + remote lock acquires, AURC occupancy tracks update traffic).
// The analytical twin (internal/twin) calibrates per-event costs against
// these counts, so the profile is part of the calibration wire contract.
type EventProfile struct {
	// Msgs and Bytes are cluster-wide send-side totals.
	Msgs  uint64 `json:"msgs"`
	Bytes uint64 `json:"bytes"`
	// PageFetches, RemoteLocks, LocalLocks and Barriers count protocol
	// events that each pay fixed per-occurrence parameter costs.
	PageFetches uint64 `json:"page_fetches"`
	RemoteLocks uint64 `json:"remote_locks"`
	LocalLocks  uint64 `json:"local_locks"`
	Barriers    uint64 `json:"barriers"`
	// Interrupts counts interrupts delivered (victim side).
	Interrupts uint64 `json:"interrupts"`
	// UpdateWords counts AURC automatic-update words (zero under HLRC).
	UpdateWords uint64 `json:"update_words"`
	// ComputeCycles is the total compute time across processors — the
	// parameter-independent part of execution time.
	ComputeCycles uint64 `json:"compute_cycles"`
}

// Profile extracts the run's event profile for twin calibration.
func (r *Run) Profile() EventProfile {
	return EventProfile{
		Msgs:          r.Sum(func(p *Proc) uint64 { return p.MsgsSent }),
		Bytes:         r.Sum(func(p *Proc) uint64 { return p.BytesSent }),
		PageFetches:   r.Sum(func(p *Proc) uint64 { return p.PageFetches }),
		RemoteLocks:   r.Sum(func(p *Proc) uint64 { return p.RemoteLocks }),
		LocalLocks:    r.Sum(func(p *Proc) uint64 { return p.LocalLocks }),
		Barriers:      r.Sum(func(p *Proc) uint64 { return p.Barriers }),
		Interrupts:    r.Sum(func(p *Proc) uint64 { return p.Interrupts }),
		UpdateWords:   r.Sum(func(p *Proc) uint64 { return p.UpdatesSent }),
		ComputeCycles: r.ComputeCycles(),
	}
}

// Speedups bundles the three speedup figures the paper reports for a single
// application: the realistic/achievable speedup, plus the ideal speedup
// limit computed from the same run. Like every stats struct, the fields pin
// their wire names with snake_case json tags (enforced by svmlint statwire).
type Speedups struct {
	Uniproc    uint64  `json:"uniproc"`    // uniprocessor execution time (cycles)
	Parallel   uint64  `json:"parallel"`   // parallel execution time (cycles)
	Ideal      float64 `json:"ideal"`      // uniproc / max_p(compute+localstall)
	Achievable float64 `json:"achievable"` // uniproc / parallel
}

// ComputeSpeedups derives speedups from a uniprocessor time and a parallel
// run.
func ComputeSpeedups(uniproc uint64, run *Run) Speedups {
	s := Speedups{Uniproc: uniproc, Parallel: run.Cycles}
	if cp := run.CriticalPath(); cp > 0 {
		s.Ideal = float64(uniproc) / float64(cp)
	}
	if run.Cycles > 0 {
		s.Achievable = float64(uniproc) / float64(run.Cycles)
	}
	return s
}

// Slowdown returns the percentage slowdown of b relative to a
// ((Tb-Ta)/Ta*100) given two execution times. Negative values are speedups,
// matching the sign convention of the paper's Table 3.
func Slowdown(ta, tb uint64) float64 {
	if ta == 0 {
		return 0
	}
	return (float64(tb) - float64(ta)) / float64(ta) * 100
}
