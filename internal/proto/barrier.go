package proto

import (
	"svmsim/internal/engine"
	"svmsim/internal/interrupts"
	"svmsim/internal/network"
	"svmsim/internal/node"
	"svmsim/internal/stats"
	"svmsim/internal/trace"
)

// Barriers are hierarchical, per the paper's SMP protocol: processors first
// synchronize within their node (hardware sharing); the last arriver closes
// the node's interval, flushes diffs, and exchanges one synchronous message
// pair with the barrier master (node 0). No interrupts are involved: the
// master's last arriver is blocked at the barrier and polls for arrival
// messages; the release is likewise deposited and polled.

type barrierArriveMsg struct {
	node int32
	// gen is the sender's barrier generation, so a master elected after a
	// crash can tell current arrivals from stragglers of earlier barriers.
	gen  uint64
	vc   []uint32
	recs []Notice
}

type barrierReleaseMsg struct {
	gen     uint64
	notices []Notice
	vc      []uint32
	// conservative marks a catch-up release whose write-notice history is no
	// longer replayable (truncated, or died with the old master): the
	// receiver must invalidate every valid remote-homed page instead.
	conservative bool
}

type barrierState struct {
	sys *System

	// participants is the number of application processors per node that
	// join barriers (one less than the node size when a processor is
	// reserved for protocol processing).
	participants int

	// master is the collecting node, 0 until a crash forces re-election
	// (recoverBarrier moves it to the lowest live node).
	master int

	// Per node: local arrival count, generation, and the wait condition.
	arrived []int
	gen     []uint64
	cond    []*engine.Cond

	// Master side: queued arrival payloads per source node.
	inbox      [][]barrierArriveMsg
	masterCond *engine.Cond

	// Per node: queued release payloads.
	releases [][]barrierReleaseMsg
	relCond  []*engine.Cond
}

func newBarrier(sy *System) *barrierState {
	n := len(sy.Nodes)
	participants := sy.Cfg.ProcsPerNode
	if sy.Cfg.Requests == interrupts.Dedicated && participants > 1 {
		participants--
	}
	b := &barrierState{
		sys:          sy,
		participants: participants,
		arrived:      make([]int, n),
		gen:          make([]uint64, n),
		cond:         make([]*engine.Cond, n),
		inbox:        make([][]barrierArriveMsg, n),
		masterCond:   engine.NewCond(sy.Sim),
		releases:     make([][]barrierReleaseMsg, n),
		relCond:      make([]*engine.Cond, n),
	}
	for i := 0; i < n; i++ {
		b.cond[i] = engine.NewCond(sy.Sim)
		b.relCond[i] = engine.NewCond(sy.Sim)
	}
	return b
}

// Barrier blocks p until every processor in the cluster has arrived.
func (sy *System) Barrier(t *engine.Thread, p *node.Processor) {
	b := sy.bar
	ns := sy.ns[p.Node.ID]
	nid := ns.id
	p.Sync(t)
	start := sy.Sim.Now()
	sy.Trace.Emit(start, int32(p.GlobalID), trace.BarrierEnter, 0, 0)
	p.Stats.Barriers++
	p.Charge(t, sy.Prm.LocalBarrierCycles, stats.BarrierWait)
	p.Sync(t)

	b.arrived[nid]++
	myGen := b.gen[nid]
	if b.arrived[nid] < b.participants {
		// Not last in the node: wait for the node-level release.
		for b.gen[nid] == myGen {
			p.Where = node.Where{Op: "barrier-local-wait"}
			b.cond[nid].Wait(t)
			p.BlockedWake(t)
		}
		p.Where = node.Where{}
		p.Book(stats.BarrierWait, sy.Sim.Now()-start)
		sy.Trace.Emit(sy.Sim.Now(), int32(p.GlobalID), trace.BarrierExit, 0, 0)
		return
	}

	// Last arriver in the node: close the interval (release semantics).
	ns.closeInterval(t, p, false)

	if nid == b.master {
		sy.barrierMaster(t, p, ns)
	} else {
		sy.barrierLeaf(t, p, ns)
	}

	// Release the node's processors into the next phase.
	b.arrived[nid] = 0
	b.gen[nid]++
	b.cond[nid].Broadcast()
	p.Book(stats.BarrierWait, sy.Sim.Now()-start)
	sy.Trace.Emit(sy.Sim.Now(), int32(p.GlobalID), trace.BarrierExit, 0, 0)
}

// barrierLeaf sends this node's arrival to the master and waits for the
// release, applying the notices it carries. After a crash the master can
// change mid-wait: the recovery round wakes every sleeper, and the leaf
// either re-sends its arrival to the new master or — if promoted — takes
// over collection itself.
func (sy *System) barrierLeaf(t *engine.Thread, p *node.Processor, ns *nodeState) {
	b := sy.bar
	myGen := b.gen[ns.id]
	sentTo := -1
	for {
		if b.master == ns.id {
			sy.barrierMaster(t, p, ns)
			return
		}
		if sentTo != b.master {
			sentTo = b.master
			recs := ns.noticesSince(ns.lastBarrierVC)
			vc := sy.slabs.clocks.copyOf(ns.vc)
			sy.send(t, newMsg(&sy.slabs.arrivals, network.Message{
				Kind:    network.BarrierArrive,
				Src:     ns.id,
				Dst:     sentTo,
				SrcProc: p.GlobalID,
				Size:    sy.Prm.CtlBytes + 4*len(vc) + sy.noticesWireBytes(recs),
			}, barrierArriveMsg{node: int32(ns.id), gen: myGen, vc: vc, recs: recs}), p, true, true)
			continue // the release (or a master change) may have landed during the send
		}
		// Discard releases of generations this node already completed
		// (duplicates from a master change).
		for len(b.releases[ns.id]) > 0 && b.releases[ns.id][0].gen < myGen {
			popFront(&b.releases[ns.id])
		}
		if len(b.releases[ns.id]) > 0 {
			break
		}
		p.Where = node.Where{Op: "barrier-release-wait"}
		b.relCond[ns.id].Wait(t)
		p.BlockedWake(t)
	}
	p.Where = node.Where{}
	rel := popFront(&b.releases[ns.id])
	if rel.conservative {
		ns.invalidateAllRemote(t, p)
	}
	ns.applyNotices(t, p, false, rel.notices, rel.vc)
	p.Sync(t)
	copy(ns.lastBarrierVC, ns.vc)
	ns.truncateLog()
}

// barrierMaster gathers every live node's arrival, merges notices and clocks,
// and sends each node a tailored release. A master elected after a crash may
// find stragglers of older generations in the inbox (their release died with
// the old master) — they are caught up conservatively — or arrivals of a
// NEWER generation, proof that the old master completed this barrier
// cluster-wide before dying, in which case the new master catches itself up
// instead of collecting.
func (sy *System) barrierMaster(t *engine.Thread, p *node.Processor, ns *nodeState) {
	b := sy.bar
	n := len(sy.Nodes)
	g := b.gen[ns.id]
	for {
		ready := true
		ahead := -1
		for i := 0; i < n; i++ {
			if i == ns.id || !sy.alive(i) {
				continue
			}
			for len(b.inbox[i]) > 0 && b.inbox[i][0].gen < g {
				sy.masterRelease(t, p, ns, popFront(&b.inbox[i]), true)
			}
			if len(b.inbox[i]) == 0 {
				ready = false
				continue
			}
			if b.inbox[i][0].gen > g {
				ahead = i
			}
		}
		if ahead >= 0 {
			sy.masterCatchUp(t, p, ns, ahead, g)
			return
		}
		if ready {
			break
		}
		p.Where = node.Where{Op: "barrier-master-wait"}
		b.masterCond.Wait(t)
		p.BlockedWake(t)
	}
	arr := make([]barrierArriveMsg, n)
	for i := 0; i < n; i++ {
		if i == ns.id || !sy.alive(i) {
			continue
		}
		arr[i] = popFront(&b.inbox[i])
	}
	// Merge every node's notices into the master's state (in node order for
	// determinism), invalidating the master's stale pages.
	for i := 0; i < n; i++ {
		if i == ns.id || !sy.alive(i) {
			continue
		}
		ns.applyNotices(t, p, false, arr[i].recs, arr[i].vc)
	}
	p.Sync(t)
	// Release each node with the notices it lacks.
	for i := 0; i < n; i++ {
		if i == ns.id || !sy.alive(i) {
			continue
		}
		sy.masterRelease(t, p, ns, arr[i], false)
	}
	copy(ns.lastBarrierVC, ns.vc)
	ns.truncateLog()
}

// masterRelease sends one node its barrier release. A catch-up release (for a
// straggler of an older generation) is conservative when the write notices
// the straggler needs predate the master's log horizon and cannot be
// replayed.
func (sy *System) masterRelease(t *engine.Thread, p *node.Processor, ns *nodeState, arr barrierArriveMsg, catchUp bool) {
	conservative := false
	if catchUp {
		for o, v := range arr.vc {
			if v < ns.logBase[o] {
				conservative = true
				break
			}
		}
	}
	recs := ns.noticesSince(arr.vc)
	if conservative {
		recs = nil
	}
	vc := sy.slabs.clocks.copyOf(ns.vc)
	sy.send(t, newMsg(&sy.slabs.releases, network.Message{
		Kind:    network.BarrierRelease,
		Src:     ns.id,
		Dst:     int(arr.node),
		SrcProc: p.GlobalID,
		Size:    sy.Prm.CtlBytes + 4*len(vc) + sy.noticesWireBytes(recs),
	}, barrierReleaseMsg{gen: arr.gen, notices: recs, vc: vc, conservative: conservative}), p, true, true)
}

// masterCatchUp handles a new master discovering that the old master already
// completed its current barrier generation cluster-wide before dying: an
// arrival of a newer generation is queued. The new master adopts the ahead
// leaf's merged clock conservatively, releases any same-generation
// stragglers, and leaves the newer arrivals queued for its own next barrier.
func (sy *System) masterCatchUp(t *engine.Thread, p *node.Processor, ns *nodeState, ahead int, g uint64) {
	b := sy.bar
	aheadVC := append([]uint32(nil), b.inbox[ahead][0].vc...)
	ns.invalidateAllRemote(t, p)
	ns.applyNotices(t, p, false, nil, aheadVC)
	p.Sync(t)
	copy(ns.lastBarrierVC, ns.vc)
	ns.truncateLog()
	for i := 0; i < len(sy.Nodes); i++ {
		if i == ns.id || !sy.alive(i) {
			continue
		}
		for len(b.inbox[i]) > 0 && b.inbox[i][0].gen <= g {
			sy.masterRelease(t, p, ns, popFront(&b.inbox[i]), true)
		}
	}
}

// handleArrive queues a node's arrival at the master (NI deposit). An
// arrival already queued for the same generation is a duplicate (the leaf
// re-sent it after a master change landed at the old address too).
func (b *barrierState) handleArrive(m *network.Message) {
	a := m.Payload.(*barrierArriveMsg)
	for _, q := range b.inbox[a.node] {
		if q.gen == a.gen {
			return
		}
	}
	b.inbox[a.node] = append(b.inbox[a.node], *a)
	b.masterCond.Broadcast()
}

// handleRelease queues a release at a leaf node (NI deposit).
func (b *barrierState) handleRelease(m *network.Message) {
	r := m.Payload.(*barrierReleaseMsg)
	b.releases[m.Dst] = append(b.releases[m.Dst], *r)
	b.relCond[m.Dst].Broadcast()
}

// popFront removes and returns the first element of a protocol queue (a
// barrier inbox or release queue, a lock's waiters). It moves the rest down
// instead of reslicing, so the queue keeps its capacity and a later append
// does not reallocate.
func popFront[T any](q *[]T) T {
	s := *q
	v := s[0]
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	*q = s[:n]
	return v
}
