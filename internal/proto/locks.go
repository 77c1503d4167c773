package proto

import (
	"fmt"

	"svmsim/internal/engine"
	"svmsim/internal/network"
	"svmsim/internal/node"
	"svmsim/internal/stats"
	"svmsim/internal/trace"
)

// The lock protocol is token-based with a fixed manager per lock, matching
// the paper's synchronous-RPC design: lock requests interrupt the node that
// can grant (manager, or the current owner the request is forwarded to);
// grants are deposited directly and polled for, so replies never interrupt.
// A node that holds the token serves its own processors locally (the SMP
// optimization: local lock acquires involve no protocol messages at all).
// Each protocol step is a trace event (see trace.LockRequest), so a test
// can assert the order of a remote acquire.

// lockGlobal is the cluster-wide description of one lock.
type lockGlobal struct {
	id      int32
	manager int32
	// ownerView is the manager's (possibly stale) view of the token holder;
	// ownerSeq versions it (the token's grant count) so that LockOwner
	// notifications arriving out of order never regress it.
	ownerView int32
	ownerSeq  uint64
}

// lockWaiter is one queued acquirer: a local processor (cond non-nil) or a
// remote node with its request vector clock.
type lockWaiter struct {
	cond   *engine.Cond
	remote int32
	vc     []uint32
}

// lockNode is one node's state for one lock.
type lockNode struct {
	haveToken bool
	busy      bool
	// requested: a LockRequest from this node is outstanding.
	requested bool
	// waiter is where the Acquire that sent the request waits to consume
	// the grant: its processor's lockWait Cond. Nil when no Acquire waits,
	// and then an arriving grant is consumed by the protocol itself
	// (node-initiated re-request).
	waiter *engine.Cond
	// tokenSeq is the token's grant count, valid while haveToken; it
	// totally orders ownership changes because the token is unique.
	tokenSeq      uint64
	lastGrantedTo int32
	// lastGrantSeq is the sequence of the last grant this node performed
	// (zero if it never granted). Recovery uses the cluster-wide maximum to
	// locate where the token was last headed when its holder may have died.
	lastGrantSeq uint64
	queue        []lockWaiter
	granted      *lockGrantMsg
}

type lockReqMsg struct {
	lock    int32
	reqNode int32
	vc      []uint32
}

type lockGrantMsg struct {
	lock    int32
	seq     uint64
	notices []Notice
	vc      []uint32
}

type lockOwnerMsg struct {
	lock  int32
	owner int32
	seq   uint64
}

// NewLock creates a cluster-wide lock and returns its ID. The manager (and
// initial token holder) is assigned round-robin across nodes.
func (sy *System) NewLock() int {
	id := int32(len(sy.locks))
	mgr := id % int32(len(sy.Nodes))
	sy.locks = append(sy.locks, sy.slabs.locks.new(lockGlobal{id: id, manager: mgr, ownerView: mgr}))
	for n, ns := range sy.ns {
		ns.locks = append(ns.locks, sy.slabs.lockNodes.new(lockNode{lastGrantedTo: mgr, haveToken: int32(n) == mgr}))
	}
	return int(id)
}

// Acquire obtains lock id for processor p, blocking as needed. Acquires
// satisfied by a token already at the node are local (hardware
// synchronization); otherwise the request travels to the manager/owner.
func (sy *System) Acquire(t *engine.Thread, p *node.Processor, id int) {
	ns := sy.ns[p.Node.ID]
	ln := ns.locks[id]
	p.Sync(t)
	start := sy.Sim.Now()
	sy.Trace.Emit(start, int32(p.GlobalID), trace.AcquireStart, int64(id), 0)

	if ln.haveToken && !ln.busy && len(ln.queue) == 0 {
		ln.busy = true
		p.Stats.LocalLocks++
		p.Charge(t, sy.Prm.LocalLockCycles, stats.LockWait)
		p.Sync(t)
		sy.Trace.Emit(sy.Sim.Now(), int32(p.GlobalID), trace.AcquireEnd, int64(id), 0)
		return
	}
	if ln.haveToken || ln.requested {
		// Token is here (busy/queued) or already on its way: queue locally.
		w := lockWaiter{cond: ns.lockWait[p.LocalID], remote: -1}
		ln.queue = append(ln.queue, w)
		p.Where = node.Where{Op: "lock-local-wait", Arg: "lock", N: int64(id)}
		w.cond.Wait(t)
		p.Where = node.Where{Op: "lock-local-wake", Arg: "lock", N: int64(id)}
		p.BlockedWake(t)
		p.Where = node.Where{}
		// The releaser handed us the lock (busy stays true).
		p.Stats.LocalLocks++
		p.Book(stats.LockWait, sy.Sim.Now()-start)
		sy.Trace.Emit(sy.Sim.Now(), int32(p.GlobalID), trace.AcquireEnd, int64(id), 0)
		return
	}
	// Token elsewhere: send a request and wait for the grant.
	ln.requested = true
	ln.waiter = ns.lockWait[p.LocalID]
	p.Stats.RemoteLocks++
	sy.sendLockRequest(t, p, true, ns, id)
	for ln.granted == nil {
		p.Where = node.Where{Op: "lock-grant-wait", Arg: "lock", N: int64(id)}
		ln.waiter.Wait(t)
		p.Where = node.Where{Op: "lock-grant-wake", Arg: "lock", N: int64(id)}
		p.BlockedWake(t)
	}
	p.Where = node.Where{}
	g := ln.granted
	ln.granted = nil
	ln.requested = false
	ln.waiter = nil
	// haveToken and busy were set by the deposit upcall; apply the notices
	// on the acquiring processor.
	ns.applyNotices(t, p, false, g.notices, g.vc)
	p.Sync(t)
	p.Book(stats.LockWait, sy.Sim.Now()-start)
	sy.Trace.Emit(sy.Sim.Now(), int32(p.GlobalID), trace.AcquireEnd, int64(id), 1)
}

// sendLockRequest routes a request toward the token: to the manager, or
// straight to the probable owner when this node is the manager.
func (sy *System) sendLockRequest(t *engine.Thread, p *node.Processor, app bool, ns *nodeState, id int) {
	lg := sy.locks[id]
	dst := int(lg.manager)
	if dst == ns.id {
		dst = int(lg.ownerView)
	}
	if dst == ns.id {
		ln := ns.locks[id]
		panic(fmt.Sprintf("proto: lock %d request self-routes at n%d: mgr=n%d ownerView=n%d ownerSeq=%d token=%v busy=%v req=%v wait=%v tokenSeq=%d queue=%d",
			id, ns.id, lg.manager, lg.ownerView, lg.ownerSeq, ln.haveToken, ln.busy, ln.requested, ln.waiter != nil, ln.tokenSeq, len(ln.queue)))
	}
	vc := sy.slabs.clocks.copyOf(ns.vc)
	sy.send(t, newMsg(&sy.slabs.lockReqs, network.Message{
		Kind:    network.LockRequest,
		Src:     ns.id,
		Dst:     dst,
		SrcProc: sy.statsProcID(ns.id, p),
		Size:    sy.Prm.CtlBytes + 4*len(vc),
	}, lockReqMsg{lock: int32(id), reqNode: int32(ns.id), vc: vc}), p, p != nil, app)
}

// Release releases lock id held by p. If a remote waiter is next, this is a
// release point: the node's interval closes, diffs flush, and the grant
// carries the write notices the waiter lacks.
func (sy *System) Release(t *engine.Thread, p *node.Processor, id int) {
	ns := sy.ns[p.Node.ID]
	ln := ns.locks[id]
	p.Sync(t)
	if !ln.busy || !ln.haveToken {
		panic(fmt.Sprintf("proto: release of lock %d not held at node %d", id, ns.id))
	}
	sy.Trace.Emit(sy.Sim.Now(), int32(p.GlobalID), trace.Release, int64(id), 0)
	sy.handoff(t, p, false, ns, id)
}

// handoff passes a held token to the next waiter (or parks it). The caller
// must hold the token with busy set.
func (sy *System) handoff(t *engine.Thread, p *node.Processor, handler bool, ns *nodeState, id int) {
	ln := ns.locks[id]
	if len(ln.queue) == 0 {
		// Lazy: keep the token, keep the interval open (the SMP
		// optimization; the interval closes when the token leaves).
		ln.busy = false
		return
	}
	next := popFront(&ln.queue)
	if next.cond != nil {
		// Local handoff: no protocol action, hardware sharing inside the
		// SMP. busy remains true on behalf of the new holder.
		next.cond.Signal()
		return
	}
	// Remote grant: close the interval first (release semantics).
	ns.closeInterval(t, p, handler)
	sy.grantTo(t, p, handler, ns, id, next.remote, next.vc)
	// Waiters left behind without the token must pull it back.
	sy.maybeRerequest(t, p, ns, id)
}

// maybeRerequest re-requests the token on the node's behalf when waiters
// remain queued after the token left.
func (sy *System) maybeRerequest(t *engine.Thread, p *node.Processor, ns *nodeState, id int) {
	ln := ns.locks[id]
	if len(ln.queue) == 0 || ln.haveToken || ln.requested {
		return
	}
	ln.requested = true
	sy.sendLockRequest(t, p, false, ns, id)
}

// grantTo moves the token from ns to remote, sending the notices computed
// against the requester's vector clock and updating the manager's view.
func (sy *System) grantTo(t *engine.Thread, p *node.Processor, handler bool, ns *nodeState, id int, remote int32, reqVC []uint32) {
	ln := ns.locks[id]
	lg := sy.locks[id]
	newSeq := ln.tokenSeq + 1
	// All token bookkeeping happens before the sends (which yield): a
	// concurrent acquire or request must observe a consistent view, or it
	// could self-route while the manager's ownerView still names itself.
	ln.haveToken = false
	ln.busy = false
	ln.lastGrantedTo = remote
	ln.lastGrantSeq = newSeq
	if int32(ns.id) == lg.manager && newSeq > lg.ownerSeq {
		lg.ownerView, lg.ownerSeq = remote, newSeq
	}
	notices := ns.noticesSince(reqVC)
	vc := sy.slabs.clocks.copyOf(ns.vc)
	proc := int32(-1)
	if p != nil {
		proc = int32(p.GlobalID)
	}
	sy.Trace.Emit(sy.Sim.Now(), proc, trace.LockGrant, int64(id), int64(remote))
	sy.send(t, newMsg(&sy.slabs.grants, network.Message{
		Kind:    network.LockGrant,
		Src:     ns.id,
		Dst:     int(remote),
		SrcProc: sy.statsProcID(ns.id, p),
		Size:    sy.Prm.CtlBytes + 4*len(vc) + sy.noticesWireBytes(notices),
	}, lockGrantMsg{lock: lg.id, seq: newSeq, notices: notices, vc: vc}), p, p != nil, !handler && p != nil)
	if int32(ns.id) != lg.manager {
		sy.send(t, newMsg(&sy.slabs.owners, network.Message{
			Kind:    network.LockOwner,
			Src:     ns.id,
			Dst:     int(lg.manager),
			SrcProc: sy.statsProcID(ns.id, p),
			Size:    sy.Prm.CtlBytes,
		}, lockOwnerMsg{lock: lg.id, owner: remote, seq: newSeq}), p, p != nil, !handler && p != nil)
	}
}

// handleLockRequest runs in an interrupt handler at a node that may hold (or
// know about) the token: grant it, queue the requester, or forward the
// request along the ownership chain.
func (sy *System) handleLockRequest(ht *engine.Thread, victim *node.Processor, m *network.Message) {
	req := m.Payload.(*lockReqMsg)
	ns := sy.ns[m.Dst]
	ln := ns.locks[req.lock]
	lg := sy.locks[req.lock]
	ht.Delay(sy.Prm.LockHandlerCycles)
	sy.Trace.Emit(sy.Sim.Now(), int32(victim.GlobalID), trace.LockRequest, int64(req.lock), int64(req.reqNode))

	if sy.fd != nil {
		if sy.fd.dead[int(req.reqNode)] {
			// The requester died: granting (or queueing) would throw the
			// token away on a dead node.
			return
		}
		if int(req.reqNode) == ns.id && ln.haveToken {
			// Our own stale request looped back after recovery rebuilt the
			// token here: consuming it would self-grant.
			return
		}
	}

	switch {
	case ln.haveToken && !ln.busy && len(ln.queue) == 0:
		// Grant directly. Reserve the token first (closeInterval can
		// block, and a concurrent request must queue rather than
		// double-grant), then close the node's interval: the last local
		// release left it open (lazy SMP optimization).
		ln.busy = true
		ns.closeInterval(ht, victim, true)
		sy.grantTo(ht, victim, true, ns, int(req.lock), req.reqNode, req.vc)
		sy.maybeRerequest(ht, victim, ns, int(req.lock))
	case ln.haveToken:
		ln.queue = append(ln.queue, lockWaiter{cond: nil, remote: req.reqNode, vc: req.vc})
	default:
		// Token is elsewhere: forward along the probable-owner chain.
		dst := ln.lastGrantedTo
		if int32(ns.id) == lg.manager {
			dst = lg.ownerView
		}
		if int(dst) == ns.id {
			// Stale self-reference (token in flight to us): queue; the
			// grant deposit will dispatch the waiter.
			ln.queue = append(ln.queue, lockWaiter{cond: nil, remote: req.reqNode, vc: req.vc})
			return
		}
		sy.send(ht, newMsg(&sy.slabs.lockReqs, network.Message{
			Kind:    network.LockRequest,
			Src:     ns.id,
			Dst:     int(dst),
			SrcProc: victim.GlobalID,
			Size:    m.Size,
		}, *req), victim, true, false)
	}
}

// handleLockGrant runs on the receiving NI side when a grant is deposited:
// it installs the token immediately (reserved) so forwarded requests racing
// with the grant queue correctly, then either wakes the waiting Acquire or —
// for node-initiated re-requests — dispatches the queue itself.
func (sy *System) handleLockGrant(m *network.Message) {
	g := m.Payload.(*lockGrantMsg)
	ns := sy.ns[m.Dst]
	ln := ns.locks[g.lock]
	ln.haveToken = true
	ln.busy = true
	ln.tokenSeq = g.seq
	sy.Trace.Emit(sy.Sim.Now(), -1, trace.GrantDeposit, int64(g.lock), int64(ns.id))
	if ln.waiter != nil {
		// A grant is never written once built, so a duplicate delivery may
		// hand over the same one.
		ln.granted = g
		ln.waiter.Broadcast()
		return
	}
	// Re-requested by the protocol: consume the grant on a fresh thread
	// (the NI receive side must not block on the release fence, since it
	// delivers the acks).
	ln.requested = false
	sy.Sim.Spawn(fmt.Sprintf("lock%d-regrant@n%d", g.lock, ns.id), func(t *engine.Thread) {
		ns.applyNotices(t, nil, false, g.notices, g.vc)
		sy.handoff(t, nil, false, ns, int(g.lock))
	})
}

// handleLockOwner updates the manager's ownership view (pure mailbox write).
func (sy *System) handleLockOwner(m *network.Message) {
	o := m.Payload.(*lockOwnerMsg)
	lg := sy.locks[o.lock]
	sy.Trace.Emit(sy.Sim.Now(), -1, trace.OwnerNotice, int64(o.lock), int64(o.owner))
	if o.seq > lg.ownerSeq {
		lg.ownerView, lg.ownerSeq = o.owner, o.seq
	}
}
