package proto

import (
	"fmt"

	"svmsim/internal/engine"
	"svmsim/internal/network"
	"svmsim/internal/node"
	"svmsim/internal/stats"
	"svmsim/internal/trace"
)

// Failure detection and recovery for crash-stop node deaths (see
// internal/network's CrashPlan for the failure model). The detector is
// heartbeat-based: every HeartbeatIntervalCycles each node's interrupt
// controller fires a heartbeat round that probes every peer believed alive
// and suspects any peer silent longer than SuspectTimeoutCycles. Both the
// probes and the detection path pay the machine's real communication costs —
// interrupt issue/delivery, host overhead, NI occupancy, I/O and memory bus —
// so detection aggressiveness sits directly on the paper's interrupt-cost
// axis: a short interval finds deaths fast but steals handler time from every
// surviving processor on every round.
//
// On suspicion the observer runs one reconfiguration round: transport state
// toward the dead node is reclaimed (retry timers disarmed), a charged
// Reconfig broadcast announces the membership change, pages homed at the dead
// node are re-homed onto survivors holding valid copies (or marked lost),
// lock tokens that died with the node are reconstructed at the manager, and
// the barrier master is re-elected if it was the casualty. Protocol state is
// repaired centrally (the simulator's shared-state shortcut); the messages
// model the wire cost of the agreement the real protocol would run.
//
// Known windows, accepted and bounded by the engine's watchdogs: a crash at
// the final barrier after a partial release can leave no later traffic to
// trigger the master's catch-up path, and a lock request re-issued during
// recovery can race an in-flight grant (the double-queue self-heals: the
// spurious grant only moves the token). MaxCycles/StallCheckCycles remain
// the backstop for these, as for any stuck run.

// LostPageError reports an access to a page whose home crashed before any
// survivor held a valid copy: its only data died with the node. Structured so
// sweeps can distinguish "application state lost" from protocol bugs.
type LostPageError struct {
	Page      int32
	Node      int // the surviving node that faulted
	DeadHome  int // the crashed home
	NowCycles engine.Time
}

func (e *LostPageError) Error() string {
	return fmt.Sprintf("proto: page %d lost: home node %d crashed with the only valid copy (access from node %d, cycle %d)",
		e.Page, e.DeadHome, e.Node, e.NowCycles)
}

// failureDetector is the cluster's heartbeat failure detector and recovery
// driver. Like the barrier state it is a single shared structure: per-node
// views (lastHeard) are indexed by observer, and membership (dead) is
// repaired centrally during a reconfiguration round.
type failureDetector struct {
	sys      *System
	interval engine.Time
	timeout  engine.Time

	// lastHeard[observer][peer] is the last cycle observer's NI deposited a
	// heartbeat from peer. Zero-initialized, giving every node one timeout
	// of grace from the start of the run.
	lastHeard [][]engine.Time
	// dead[n] is the protocol's membership view: set when n is declared
	// dead, before any recovery yields, so concurrent observers join the
	// same round instead of starting their own.
	dead []bool
	// lost maps a lost page to the dead home it vanished with.
	lost map[int32]int32

	// reconfiguring serializes recovery rounds (their sends yield).
	reconfiguring bool
	reconfigCond  *engine.Cond
	// limbo parks threads that faulted on a lost page after they fail the
	// run; it is never signaled.
	limbo *engine.Cond

	ticks []*hbTick
	rec   stats.Recovery
}

// hbTick is the typed target of one node's periodic heartbeat timer.
type hbTick struct {
	fd   *failureDetector
	node int
}

// HandleEvent implements engine.EventTarget: the heartbeat timer firing.
func (h *hbTick) HandleEvent(any) { h.fd.tick(h.node) }

// HandleRequest implements interrupts.Handler: the node's heartbeat round,
// raised with no message.
func (h *hbTick) HandleRequest(ht *engine.Thread, victim *node.Processor, _ *network.Message) {
	h.fd.beat(ht, victim, h.node)
}

func newFailureDetector(sy *System) *failureDetector {
	n := len(sy.Nodes)
	fd := &failureDetector{
		sys:          sy,
		interval:     sy.Prm.HeartbeatIntervalCycles,
		timeout:      sy.Prm.SuspectTimeoutCycles,
		lastHeard:    make([][]engine.Time, n),
		dead:         make([]bool, n),
		lost:         make(map[int32]int32),
		reconfigCond: engine.NewCond(sy.Sim),
		limbo:        engine.NewCond(sy.Sim),
	}
	if fd.timeout == 0 {
		fd.timeout = 4 * fd.interval
	}
	for i := range fd.lastHeard {
		fd.lastHeard[i] = make([]engine.Time, n)
	}
	for i := 0; i < n; i++ {
		tk := &hbTick{fd: fd, node: i}
		fd.ticks = append(fd.ticks, tk)
		sy.Sim.AtTarget(fd.interval, tk, nil)
	}
	return fd
}

// alive reports the protocol's membership view of node n. Always true when
// the detector is off: without detection the protocol never learns of a
// death (a crashed peer then looks like an unbounded stall or exhausts a
// transport retry budget, whichever comes first).
func (sy *System) alive(n int) bool { return sy.fd == nil || !sy.fd.dead[n] }

// Recovery returns the failure-detection and recovery counters (all zero
// when the detector never ran).
func (sy *System) Recovery() stats.Recovery {
	if sy.fd == nil {
		return stats.Recovery{}
	}
	return sy.fd.rec
}

// tick fires in scheduler context at node n's heartbeat period: it raises the
// heartbeat interrupt and re-arms itself. Dead nodes stop ticking so the
// event queue can drain once the survivors finish.
func (fd *failureDetector) tick(n int) {
	sy := fd.sys
	if fd.dead[n] || sy.NIs[n][0].Crashed() {
		return
	}
	sy.Trace.Emit(sy.Sim.Now(), -1, trace.Interrupt, int64(n), int64(network.Heartbeat))
	sy.Intc[n].Raise("hb", fd.ticks[n], nil)
	sy.Sim.AtTarget(fd.interval, fd.ticks[n], nil)
}

// beat runs one heartbeat round in an interrupt handler on node n: probe
// every live peer, then suspect any peer silent past the timeout.
func (fd *failureDetector) beat(ht *engine.Thread, victim *node.Processor, n int) {
	sy := fd.sys
	if fd.dead[n] || sy.NIs[n][0].Crashed() {
		return
	}
	for peer := range sy.Nodes {
		if peer == n || fd.dead[peer] {
			continue
		}
		fd.rec.HeartbeatsSent++
		sy.send(ht, sy.slabs.msgs.new(network.Message{
			Kind:    network.Heartbeat,
			Src:     n,
			Dst:     peer,
			SrcProc: sy.statsProcID(n, victim),
			Size:    sy.Prm.CtlBytes,
		}), victim, true, false)
	}
	for peer := range sy.Nodes {
		if peer == n || fd.dead[peer] {
			continue
		}
		if sy.Sim.Now()-fd.lastHeard[n][peer] > fd.timeout {
			fd.reconfigure(ht, victim, n, peer)
		}
	}
}

// onHeartbeat records a deposited heartbeat in the receiver's view.
func (fd *failureDetector) onHeartbeat(m *network.Message) {
	fd.lastHeard[m.Dst][m.Src] = fd.sys.Sim.Now()
}

// reconfigure runs one recovery round after observer suspects deadNode.
// Rounds are serialized; the membership change is published before the first
// yield so concurrent suspicions of the same node collapse into this round.
func (fd *failureDetector) reconfigure(ht *engine.Thread, victim *node.Processor, observer, deadNode int) {
	sy := fd.sys
	for fd.reconfiguring {
		fd.reconfigCond.Wait(ht)
	}
	if fd.dead[deadNode] || fd.dead[observer] || sy.NIs[observer][0].Crashed() {
		return // already handled, or we died while queued
	}
	fd.reconfiguring = true
	start := sy.Sim.Now()
	fd.dead[deadNode] = true
	fd.rec.ReconfigRounds++
	fd.rec.SuspectCycles += uint64(start - fd.lastHeard[observer][deadNode])

	// Retire transport state toward the dead node on every surviving NI:
	// its retry timers disarm and future sends to it are no longer tracked,
	// so a dead peer can no longer exhaust anyone's retry budget.
	for n := range sy.NIs {
		if fd.dead[n] {
			continue
		}
		for _, ni := range sy.NIs[n] {
			ni.ReclaimPeer(deadNode)
		}
	}
	// Announce the new membership (the agreement the survivors would run;
	// here it carries the round's wire cost, the state repair is central).
	for peer := range sy.Nodes {
		if peer == observer || fd.dead[peer] {
			continue
		}
		sy.send(ht, newMsg(&sy.slabs.int32s, network.Message{
			Kind:    network.Reconfig,
			Src:     observer,
			Dst:     peer,
			SrcProc: sy.statsProcID(observer, victim),
			Size:    sy.Prm.CtlBytes,
		}, int32(deadNode)), victim, true, false)
	}
	fd.recoverPages(deadNode)
	fd.recoverLocks(ht, deadNode)
	fd.recoverBarrier(deadNode)
	fd.rec.RecoveryCycles += uint64(sy.Sim.Now() - start)
	fd.reconfiguring = false
	fd.reconfigCond.Broadcast()
}

// recoverPages re-homes every page homed at the dead node onto the lowest-ID
// survivor holding a valid copy, or marks it lost. Requester-side state
// pointed at the dead home (in-flight fetches, unacknowledged diffs) is
// cleared first: the home died, so neither the reply nor the ack can arrive.
// No statement here yields, so the repair is atomic to the protocol.
func (fd *failureDetector) recoverPages(deadNode int) {
	sy := fd.sys
	for pg := int32(0); pg < int32(sy.pages); pg++ {
		if int(sy.pageHome[pg]) != deadNode {
			continue
		}
		for n, ns := range sy.ns {
			if fd.dead[n] {
				continue
			}
			if ns.fetching[pg] {
				delete(ns.fetching, pg)
			}
			if fl := ns.diffFlight[pg]; fl > 0 {
				ns.pendingAcks -= fl
				delete(ns.diffFlight, pg)
			}
		}
		newHome := -1
		for n, ns := range sy.ns {
			if fd.dead[n] {
				continue
			}
			if ns.state[pg] != pgInvalid {
				newHome = n
				break
			}
		}
		if newHome < 0 {
			fd.lost[pg] = int32(deadNode)
			fd.rec.PagesLost++
			continue
		}
		sy.pageHome[pg] = int32(newHome)
		// The new home's copy is now authoritative: homes never twin or
		// diff, they receive diffs.
		sy.ns[newHome].dropTwin(pg)
		fd.rec.PagesRehomed++
	}
	for n, ns := range sy.ns {
		if fd.dead[n] {
			continue
		}
		ns.fetchCond.Broadcast()
		ns.ackCond.Broadcast()
	}
}

// recoverLocks repairs every lock after deadNode's death: dead waiters are
// purged, the manager role moves off the dead node, a token that died with
// it is reconstructed at the manager, and survivors whose outstanding
// request died in transit re-issue it.
func (fd *failureDetector) recoverLocks(ht *engine.Thread, deadNode int) {
	sy := fd.sys
	for id, lg := range sy.locks {
		for n, ns := range sy.ns {
			if fd.dead[n] {
				continue
			}
			ln := ns.locks[id]
			keep := ln.queue[:0]
			for _, w := range ln.queue {
				if w.cond == nil && fd.dead[int(w.remote)] {
					continue
				}
				keep = append(keep, w)
			}
			ln.queue = keep
		}
		if fd.dead[int(lg.manager)] {
			lg.manager = int32(fd.lowestLive())
		}
		holder := -1
		for n, ns := range sy.ns {
			if !fd.dead[n] && ns.locks[id].haveToken {
				holder = n
				break
			}
		}
		// The latest grant any survivor performed tells us where the token
		// was last headed; if that destination is dead, the token died in
		// its hands (or on the wire toward them) and must be reconstructed.
		maxSeq, lastTo := uint64(0), int32(-1)
		for n, ns := range sy.ns {
			if fd.dead[n] {
				continue
			}
			ln := ns.locks[id]
			if lastTo < 0 || ln.lastGrantSeq > maxSeq {
				maxSeq, lastTo = ln.lastGrantSeq, ln.lastGrantedTo
			}
		}
		if holder < 0 && lastTo >= 0 && fd.dead[int(lastTo)] {
			newSeq := maxSeq + 1
			if lg.ownerSeq >= newSeq {
				newSeq = lg.ownerSeq + 1
			}
			for n, ns := range sy.ns {
				if !fd.dead[n] && ns.locks[id].tokenSeq >= newSeq {
					newSeq = ns.locks[id].tokenSeq + 1
				}
			}
			holder = int(lg.manager)
			hn := sy.ns[holder].locks[id]
			hn.haveToken = true
			hn.tokenSeq = newSeq
			lg.ownerView, lg.ownerSeq = int32(holder), newSeq
			fd.rec.LocksReclaimed++
			switch {
			case hn.waiter != nil:
				// An Acquire is blocked here: hand it the rebuilt token as a
				// fabricated grant (no notices: the dead grantor's interval
				// died unflushed with it).
				hn.busy = true
				hn.granted = &lockGrantMsg{lock: lg.id, seq: newSeq}
				hn.waiter.Broadcast()
			case len(hn.queue) > 0:
				hn.busy = true
				hn.requested = false
				holderNode, lockID := holder, id
				sy.Sim.Spawn(fmt.Sprintf("lock%d-reclaim@n%d", lockID, holderNode), func(t *engine.Thread) {
					sy.handoff(t, nil, false, sy.ns[holderNode], lockID)
				})
			default:
				hn.busy = false
				hn.requested = false
			}
		}
		if fd.dead[int(lg.ownerView)] {
			switch {
			case holder >= 0:
				lg.ownerView = int32(holder)
			case lastTo >= 0 && !fd.dead[int(lastTo)]:
				lg.ownerView = lastTo
			default:
				lg.ownerView = lg.manager
			}
		}
		// Survivors with an outstanding request that is queued nowhere live
		// and has no grant headed their way lost it in the dead node's
		// queue or on the wire: re-issue on their behalf.
		for n, ns := range sy.ns {
			if fd.dead[n] {
				continue
			}
			ln := ns.locks[id]
			if !ln.requested || ln.haveToken || n == holder {
				continue
			}
			if holder < 0 && int(lastTo) == n {
				continue // grant in flight toward n between live nodes
			}
			queued := false
			for w, ws := range sy.ns {
				if fd.dead[w] {
					continue
				}
				for _, q := range ws.locks[id].queue {
					if q.cond == nil && int(q.remote) == n {
						queued = true
						break
					}
				}
				if queued {
					break
				}
			}
			if queued {
				continue
			}
			dst := int(lg.manager)
			if dst == n {
				dst = int(lg.ownerView)
			}
			if dst == n {
				continue // inconsistent view; the watchdog is the backstop
			}
			sy.sendLockRequest(ht, nil, false, ns, id)
		}
	}
}

// recoverBarrier re-elects the barrier master if it died and wakes every
// barrier sleeper: stuck leaves re-send their arrival to the new master, a
// promoted leaf takes over collection, and the master re-evaluates
// readiness without the dead node.
func (fd *failureDetector) recoverBarrier(deadNode int) {
	sy := fd.sys
	b := sy.bar
	if b.master == deadNode {
		b.master = fd.lowestLive()
	}
	b.inbox[deadNode] = nil
	b.masterCond.Broadcast()
	for i := range b.relCond {
		if !fd.dead[i] {
			b.relCond[i].Broadcast()
		}
	}
}

// invalidateAllRemote conservatively drops every valid remote-homed page,
// flushing local modifications first (invalidatePage semantics). Used when
// the write-notice history a recovering node would need is no longer
// replayable: always safe, because the surviving homes hold all flushed
// data; costly, because every future access refetches.
func (ns *nodeState) invalidateAllRemote(t *engine.Thread, p *node.Processor) {
	sy := ns.sys
	inv := 0
	for pg := int32(0); pg < int32(sy.pages); pg++ {
		home := sy.pageHome[pg]
		if home < 0 || int(home) == ns.id || ns.state[pg] == pgInvalid {
			continue
		}
		if ns.invalidatePage(t, p, false, pg) {
			inv++
		}
	}
	if inv > 0 && p != nil {
		p.Charge(t, engine.Time(inv)*sy.Prm.InvalidatePageCycles, stats.LocalStall)
	}
}

// lowestLive returns the lowest-ID live node (recovery's deterministic
// election rule).
func (fd *failureDetector) lowestLive() int {
	for n, d := range fd.dead {
		if !d {
			return n
		}
	}
	panic("proto: no live node remains")
}
