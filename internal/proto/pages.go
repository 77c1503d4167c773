package proto

import (
	"encoding/binary"
	"sort"

	"svmsim/internal/engine"
	"svmsim/internal/network"
	"svmsim/internal/node"
	"svmsim/internal/stats"
	"svmsim/internal/trace"
)

// pageReq and pageReply are the page-fetch payloads.
type pageReq struct {
	page  int32
	epoch uint32
}

type pageReply struct {
	page  int32
	epoch uint32
	data  []byte
}

// ReadWord performs a shared-memory read of the aligned 8-byte word at addr
// on processor p, driving the SVM protocol (page fault and fetch when the
// page is invalid) and the cache timing model.
func (sy *System) ReadWord(t *engine.Thread, p *node.Processor, addr uint64) uint64 {
	sy.ensure(t, p, addr, false)
	p.Access(t, addr, false)
	return p.Node.ReadWord(addr)
}

// WriteWord performs a shared-memory write of the aligned 8-byte word at
// addr, driving write detection (twin creation under HLRC, update
// propagation under AURC) and the cache timing model. Like hardware, the
// protection check and the store are atomic: if the page is invalidated
// while the access stalls (a yield inside the timing model), the write
// faults again instead of landing on a stale copy.
func (sy *System) WriteWord(t *engine.Thread, p *node.Processor, addr uint64, v uint64) {
	ns := sy.ns[p.Node.ID]
	pg := sy.PageOf(addr)
	for {
		sy.ensure(t, p, addr, true)
		p.Access(t, addr, true)
		if ns.state[pg] == pgWritable {
			break
		}
	}
	p.Node.WriteWord(addr, v)
	if sy.Prm.Mode == AURC {
		if home := sy.pageHome[pg]; home >= 0 && int(home) != ns.id {
			ns.aurcCapture(t, p, pg, addr, v)
		}
	}
}

// ensure makes the page containing addr readable (write=false) or writable
// (write=true) on p's node, blocking through the protocol as needed.
func (sy *System) ensure(t *engine.Thread, p *node.Processor, addr uint64, write bool) {
	ns := sy.ns[p.Node.ID]
	pg := sy.PageOf(addr)
	st := ns.state[pg]
	// Fast paths first: no engine interaction.
	if st == pgWritable || (st == pgReadOnly && !write) {
		return
	}
	// First touch: claim the home.
	if sy.pageHome[pg] < 0 {
		sy.pageHome[pg] = int32(ns.id)
		if write {
			ns.makeWritable(t, p, pg, false)
		} else {
			ns.state[pg] = pgReadOnly
		}
		return
	}
	home := int(sy.pageHome[pg])
	for {
		switch ns.state[pg] {
		case pgWritable:
			return
		case pgReadOnly:
			if !write {
				return
			}
			if ns.makeWritable(t, p, pg, true) {
				return
			}
			// Invalidated while the fault cost was being charged: retry.
		case pgInvalid:
			if home == ns.id {
				// The home never invalidates its own copy.
				ns.state[pg] = pgReadOnly
				continue
			}
			ns.fetch(t, p, pg)
		}
	}
}

// makeWritable transitions a page to the writable state, creating a twin
// under HLRC when the node is not the page's home. fault indicates a real
// protection fault (charged); first-touch claims are free. It returns false
// when the page was invalidated while the fault cost was being charged (the
// caller must re-validate and retry). All protocol state mutations happen
// without yielding, so a concurrent invalidation always sees a consistent
// (twin present iff writable-non-home) page.
func (ns *nodeState) makeWritable(t *engine.Thread, p *node.Processor, pg int32, fault bool) bool {
	sy := ns.sys
	if fault {
		p.Stats.PageFaults++
		// Charging can yield; re-validate the page state afterwards.
		p.Charge(t, sy.Prm.FaultCycles+sy.Prm.TLBCycles, stats.LocalStall)
		if ns.state[pg] == pgInvalid {
			return false
		}
		if ns.state[pg] == pgWritable {
			return true // another local processor upgraded it meanwhile
		}
	}
	home := sy.pageHome[pg]
	var twinCost engine.Time
	if sy.Prm.Mode == HLRC && int(home) != ns.id {
		if _, ok := ns.twins[pg]; !ok {
			base := sy.PageAddr(pg)
			twin := ns.newTwin()
			copy(twin, p.Node.Mem[base:base+uint64(sy.Prm.PageBytes)])
			ns.twins[pg] = twin
			twinCost = engine.Time(sy.Prm.PageBytes/8) * sy.Prm.TwinWordCycles
		}
	}
	ns.state[pg] = pgWritable
	ns.dirty[pg] = struct{}{}
	if twinCost > 0 {
		// Charged after the atomic transition; an invalidation landing in
		// this yield finds a consistent writable page and diffs it normally.
		p.Charge(t, twinCost, stats.DiffTime)
	}
	return true
}

// newTwin returns a page-sized twin buffer, a spare one of this node when
// there is one; the caller fills every byte.
func (ns *nodeState) newTwin() []byte {
	if n := len(ns.spareTwins); n > 0 {
		twin := ns.spareTwins[n-1]
		ns.spareTwins = ns.spareTwins[:n-1]
		return twin
	}
	return make([]byte, ns.sys.Prm.PageBytes)
}

// dropTwin deletes pg's twin, if any, and keeps its buffer for this node's
// next twin.
func (ns *nodeState) dropTwin(pg int32) {
	if twin, ok := ns.twins[pg]; ok {
		delete(ns.twins, pg)
		ns.spareTwins = append(ns.spareTwins, twin)
	}
}

// fetch brings pg from its home, blocking p until the page is valid.
func (ns *nodeState) fetch(t *engine.Thread, p *node.Processor, pg int32) {
	sy := ns.sys
	p.Stats.PageFaults++
	p.Sync(t)
	start := sy.Sim.Now()
	sy.Trace.Emit(start, int32(p.GlobalID), trace.FetchStart, int64(pg), 0)
	p.Charge(t, sy.Prm.FaultCycles+sy.Prm.TLBCycles, stats.LocalStall)
	p.Sync(t)

	if sy.Prm.AllLocal {
		// Ablation: faults are served locally; teleport the data. The
		// flush-before-fetch ordering still applies: our own in-flight diff
		// must reach the home before we copy its content back.
		for ns.diffFlight[pg] > 0 {
			ns.ackCond.Wait(t)
			p.BlockedWake(t)
		}
		if ns.state[pg] == pgInvalid { // not installed while waiting for the flush
			home := int(sy.pageHome[pg])
			base := sy.PageAddr(pg)
			copy(p.Node.Mem[base:base+uint64(sy.Prm.PageBytes)], sy.Nodes[home].Mem[base:base+uint64(sy.Prm.PageBytes)])
			p.Node.InvalidateRange(base, sy.Prm.PageBytes)
			ns.state[pg] = pgReadOnly
		}
		sy.Trace.Emit(sy.Sim.Now(), int32(p.GlobalID), trace.FetchEnd, int64(pg), 0)
		return
	}

	// Re-check and re-issue on every wakeup: the page can be installed and
	// invalidated again before this waiter runs, in which case no request
	// remains outstanding and someone must send a fresh one. A request may
	// only leave once our own flush of the page has been acknowledged by
	// the home (flush-before-fetch ordering).
	for ns.state[pg] == pgInvalid {
		if sy.fd != nil {
			if dead, lost := sy.fd.lost[pg]; lost {
				// The page's only data died with its home. Fail the run with
				// a structured error and park: the engine tears down after
				// the failure is recorded.
				sy.Sim.Fail(&LostPageError{Page: pg, Node: ns.id, DeadHome: int(dead), NowCycles: sy.Sim.Now()})
				for {
					p.Where = node.Where{Op: "lost-page", Arg: "pg", N: int64(pg)}
					sy.fd.limbo.Wait(t)
				}
			}
		}
		if ns.diffFlight[pg] > 0 {
			p.Where = node.Where{Op: "diff-flight-wait", Arg: "pg", N: int64(pg)}
			ns.ackCond.Wait(t)
			p.BlockedWake(t)
			continue
		}
		if !ns.fetching[pg] {
			ns.fetching[pg] = true
			p.Stats.PageFetches++
			epoch := ns.fetchEpoch[pg]
			sy.send(t, newMsg(&sy.slabs.pageReqs, network.Message{
				Kind:    network.PageRequest,
				Src:     ns.id,
				Dst:     int(sy.pageHome[pg]),
				SrcProc: p.GlobalID,
				Size:    sy.Prm.CtlBytes,
			}, pageReq{page: pg, epoch: epoch}), p, true, true)
			if ns.state[pg] != pgInvalid {
				break
			}
		}
		p.Where = node.Where{Op: "fetch-wait", Arg: "pg", N: int64(pg),
			Fetch: true, Epoch: ns.fetchEpoch[pg], Fetching: ns.fetching[pg]}
		ns.fetchCond.Wait(t)
		p.BlockedWake(t)
	}
	p.Where = node.Where{}
	sy.Trace.Emit(sy.Sim.Now(), int32(p.GlobalID), trace.FetchEnd, int64(pg), 0)
	p.Book(stats.DataWait, sy.Sim.Now()-start)
}

// handlePageRequest runs in an interrupt handler on the home node.
func (sy *System) handlePageRequest(ht *engine.Thread, victim *node.Processor, m *network.Message) {
	ht.Delay(sy.Prm.TLBCycles + sy.Prm.PageHandlerCycles)
	sy.servePageRequest(ht, victim, m)
}

// servePageRequest snapshots the page and posts the reply. It runs either
// in a host interrupt handler (victim set) or directly on the NI receive
// thread when NIServePages is enabled (victim nil: no host overhead).
func (sy *System) servePageRequest(t *engine.Thread, victim *node.Processor, m *network.Message) {
	req := m.Payload.(*pageReq)
	base := sy.PageAddr(req.page)
	data := make([]byte, sy.Prm.PageBytes)
	copy(data, sy.Nodes[m.Dst].Mem[base:base+uint64(sy.Prm.PageBytes)])
	sy.send(t, ownMsg(network.Message{
		Kind:    network.PageReply,
		Src:     m.Dst,
		Dst:     m.Src,
		SrcProc: sy.statsProcID(m.Dst, victim),
		Size:    sy.Prm.PageBytes + sy.Prm.CtlBytes,
	}, pageReply{page: req.page, epoch: req.epoch, data: data}), victim, victim != nil, false)
}

// handlePageReply installs a fetched page; it runs on the receiving NI
// side (direct deposit, no interrupt).
func (sy *System) handlePageReply(m *network.Message) {
	rep := m.Payload.(*pageReply)
	ns := sy.ns[m.Dst]
	pg := rep.page
	if rep.epoch != ns.fetchEpoch[pg] {
		// The page was invalidated while the fetch was in flight; the copy
		// is stale. Re-request with the current epoch (NI-generated).
		sy.send(nil, newMsg(&sy.slabs.pageReqs, network.Message{
			Kind:    network.PageRequest,
			Src:     ns.id,
			Dst:     int(sy.pageHome[pg]),
			SrcProc: sy.Nodes[ns.id].Procs[0].GlobalID,
			Size:    sy.Prm.CtlBytes,
		}, pageReq{page: pg, epoch: ns.fetchEpoch[pg]}), nil, false, false)
		return
	}
	if ns.state[pg] != pgInvalid || !ns.fetching[pg] {
		// Duplicate or superseded reply (an epoch re-request can race with
		// an already-installed copy): never clobber a valid page.
		ns.fetching[pg] = false
		return
	}
	base := sy.PageAddr(pg)
	nd := sy.Nodes[m.Dst]
	copy(nd.Mem[base:base+uint64(sy.Prm.PageBytes)], rep.data)
	nd.InvalidateRange(base, sy.Prm.PageBytes)
	ns.fetching[pg] = false
	ns.state[pg] = pgReadOnly
	ns.fetchCond.Broadcast()
}

// invalidatePage applies one write notice entry at a node: flush pending
// local modifications (diff to home under HLRC), then drop the copy. The
// home never invalidates. Returns true if the page state changed.
func (ns *nodeState) invalidatePage(t *engine.Thread, p *node.Processor, handler bool, pg int32) bool {
	sy := ns.sys
	if int(sy.pageHome[pg]) == ns.id {
		return false
	}
	// Concurrent multiple writers (false sharing across locks): commit our
	// own modifications before dropping the page. diffPage yields after its
	// atomic snapshot+transition, and a racing local write may re-twin the
	// page during that yield, so loop until the page is observed clean with
	// no intervening yield. The page stays in the dirty set so the next
	// interval's write notice still announces our writes.
	for ns.state[pg] == pgWritable {
		if sy.Prm.Mode == HLRC {
			ns.diffPage(t, p, handler, pg)
		} else {
			ns.aurcFlush(t, p, handler)
			ns.state[pg] = pgReadOnly
		}
	}
	if ns.state[pg] == pgInvalid {
		ns.fetchEpoch[pg]++
		return false
	}
	// State is pgReadOnly here and nothing has yielded since the check:
	// the transition below is atomic. The fetch epoch advances on EVERY
	// invalidation (it is an invalidation counter): a reply whose snapshot
	// was taken at the home before a later invalidation-and-flush of this
	// node's copy must never install over the fresher state, even when no
	// fetch was in flight at invalidation time.
	ns.state[pg] = pgInvalid
	ns.fetchEpoch[pg]++
	base := sy.PageAddr(pg)
	sy.Nodes[ns.id].InvalidateRange(base, sy.Prm.PageBytes)
	return true
}

// applyNotices merges incoming write notices and the sender's vector clock,
// invalidating stale pages. The per-page processing cost is charged to the
// caller. Returns the number of pages invalidated.
func (ns *nodeState) applyNotices(t *engine.Thread, p *node.Processor, handler bool, notices []Notice, vc []uint32) int {
	sy := ns.sys
	inv := 0
	for _, rec := range notices {
		o := rec.Origin
		if rec.Interval <= ns.vc[o] {
			continue // already known
		}
		ns.appendLog(rec)
		for _, pg := range rec.Pages {
			if ns.invalidatePage(t, p, handler, pg) {
				inv++
			}
		}
		if rec.Interval > ns.vc[o] {
			ns.vc[o] = rec.Interval
		}
	}
	for i, v := range vc {
		if v > ns.vc[i] {
			ns.vc[i] = v
		}
	}
	if inv > 0 && p != nil {
		p.Charge(t, engine.Time(inv)*sy.Prm.InvalidatePageCycles, stats.LocalStall)
	}
	return inv
}

// appendLog records a notice in the per-origin log, keeping ascending
// interval order and skipping duplicates and already-truncated intervals.
func (ns *nodeState) appendLog(rec Notice) {
	if rec.Interval <= ns.logBase[rec.Origin] {
		return // truncated: globally known since the last barrier
	}
	l := ns.log[rec.Origin]
	n := len(l)
	if n == 0 || l[n-1].Interval < rec.Interval {
		ns.log[rec.Origin] = append(l, rec)
		return
	}
	// Out-of-order or duplicate: insert if missing.
	i := sort.Search(n, func(i int) bool { return l[i].Interval >= rec.Interval })
	if i < n && l[i].Interval == rec.Interval {
		return
	}
	l = append(l, Notice{})
	copy(l[i+1:], l[i:])
	l[i] = rec
	ns.log[rec.Origin] = l
}

// truncateLog drops log entries every node is guaranteed to know (interval
// <= lastBarrierVC[origin]); safe because no request with an older vector
// clock can be outstanding across a barrier (its issuer would be blocked in
// the acquire and could not have reached the barrier).
func (ns *nodeState) truncateLog() {
	for o := range ns.log {
		cut := ns.lastBarrierVC[o]
		if cut <= ns.logBase[o] {
			continue
		}
		l := ns.log[o]
		i := sort.Search(len(l), func(i int) bool { return l[i].Interval > cut })
		ns.log[o] = append([]Notice(nil), l[i:]...)
		ns.logBase[o] = cut
	}
}

// noticesSince collects all notices with interval greater than vc, per
// origin, for transmission to an acquirer.
func (ns *nodeState) noticesSince(vc []uint32) []Notice {
	out := ns.noticeBuf[:0]
	for o := range ns.log {
		l := ns.log[o]
		i := sort.Search(len(l), func(i int) bool { return l[i].Interval > vc[o] })
		out = append(out, l[i:]...)
	}
	ns.noticeBuf = out
	return ns.sys.slabs.notices.copyOf(out)
}

// noticesWireBytes sizes a notice set on the wire.
func (sy *System) noticesWireBytes(recs []Notice) int {
	n := 0
	for _, r := range recs {
		n += sy.Prm.NoticeBytes + 4*len(r.Pages)
	}
	return n
}

// readWordRaw reads a word from a specific node's image (protocol use).
func readWordRaw(nd *node.Node, addr uint64) uint64 {
	return binary.LittleEndian.Uint64(nd.Mem[addr:])
}
