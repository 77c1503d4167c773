package proto

import (
	"slices"

	"svmsim/internal/engine"
	"svmsim/internal/network"
	"svmsim/internal/node"
	"svmsim/internal/stats"
	"svmsim/internal/trace"
)

// diffMsg carries one page's diff to its home.
type diffMsg struct {
	page int32
	offs []uint16 // word offsets within the page
	vals []uint64
}

// updateMsg carries coalesced AURC automatic updates to one home node.
type updateMsg struct {
	addrs []uint64
	vals  []uint64
}

// chargeWork accounts n protocol-processing cycles: application threads book
// them under kind; handler and NI threads simply advance (the interrupt
// steal bracket attributes them to the victim CPU).
func chargeWork(t *engine.Thread, p *node.Processor, handler bool, n engine.Time, kind stats.TimeKind) {
	if n == 0 {
		return
	}
	if handler || p == nil {
		t.Delay(n)
		return
	}
	p.Charge(t, n, kind)
	p.Sync(t)
}

// protoAcquire serializes node-level protocol transitions. Waiters here
// deliberately do not wait out interrupt handlers on wakeup (no BlockedWake):
// a handler on the same CPU may itself be blocked on this mutex, and waiting
// for it would deadlock. Overlapped handler time is still charged at the
// application's next Sync.
func (ns *nodeState) protoAcquire(t *engine.Thread, p *node.Processor, handler bool) {
	for ns.protoBusy {
		if p != nil {
			p.Where = node.Where{Op: "proto-mutex-wait"}
		}
		ns.protoCond.Wait(t)
	}
	if p != nil {
		p.Where = node.Where{}
	}
	ns.protoBusy = true
}

func (ns *nodeState) protoRelease() {
	ns.protoBusy = false
	ns.protoCond.Broadcast()
}

// closeInterval ends the node's current interval at a release point: flush
// the releasing processor's write buffer, push all modifications to the
// pages' homes (diffs under HLRC, buffered updates under AURC), record the
// write notice, and wait until the homes have acknowledged everything
// (flush-before-release, which is what lets page fetches skip version
// checks). p is nil or the handler's victim when called from an interrupt
// handler (handler=true).
func (ns *nodeState) closeInterval(t *engine.Thread, p *node.Processor, handler bool) {
	sy := ns.sys
	ns.protoAcquire(t, p, handler)
	if p != nil && !handler {
		p.FlushWB(t)
	}
	if len(ns.dirty) > 0 {
		// The log keeps the page list, so it is carved from a slab.
		pages := ns.pageBuf[:0]
		for pg := range ns.dirty {
			pages = append(pages, pg)
		}
		ns.pageBuf = pages
		slices.Sort(pages)
		pages = sy.slabs.pages.copyOf(pages)
		for _, pg := range pages {
			home := int(sy.pageHome[pg])
			switch {
			case ns.state[pg] != pgWritable:
				// Already flushed when the page was invalidated mid-interval.
			case home == ns.id:
				ns.state[pg] = pgReadOnly // re-arm write detection
			case sy.Prm.Mode == HLRC:
				ns.diffPage(t, p, handler, pg)
			default: // AURC: data already streamed; re-arm detection
				ns.state[pg] = pgReadOnly
			}
		}
		if sy.Prm.Mode == AURC {
			ns.aurcFlush(t, p, handler)
		}
		ns.interval++
		rec := Notice{Origin: int32(ns.id), Interval: ns.interval, Pages: pages}
		ns.appendLog(rec)
		ns.vc[ns.id] = ns.interval
		// Retire exactly the snapshot: pages re-dirtied during the close's
		// yields (state back to writable) belong to the next interval and
		// must keep their dirty entry.
		for _, pg := range pages {
			if ns.state[pg] != pgWritable {
				delete(ns.dirty, pg)
			}
		}
	}
	ns.waitAcks(t, p, handler)
	ns.protoRelease()
}

// diffPage computes the diff of pg against its twin, sends it to the home,
// and reverts the page to read-only. The diff creation cost follows the
// paper: a per-word comparison cost plus a per-included-word cost.
func (ns *nodeState) diffPage(t *engine.Thread, p *node.Processor, handler bool, pg int32) {
	sy := ns.sys
	twin, ok := ns.twins[pg]
	if !ok {
		// A writable non-home HLRC page always has a twin (makeWritable
		// mutates atomically); anything else is a protocol bug that would
		// silently drop writes.
		panic("proto: diff of writable page without twin")
	}
	nd := sy.Nodes[ns.id]
	base := sy.PageAddr(pg)
	words := sy.Prm.PageBytes / 8
	offs, vals := ns.offBuf[:0], ns.wordBuf[:0]
	for w := 0; w < words; w++ {
		addr := base + uint64(w*8)
		cur := readWordRaw(nd, addr)
		old := wordAt(twin, w)
		if cur != old {
			offs = append(offs, uint16(w))
			vals = append(vals, cur)
		}
	}
	ns.offBuf, ns.wordBuf = offs, vals
	offs, vals = sy.slabs.diffOffs.copyOf(offs), sy.slabs.diffWords.copyOf(vals)
	// The diff snapshot, the write-protection transition and the in-flight
	// bookkeeping must be atomic (no yield): a write landing between them
	// would be captured into the next twin as pre-existing data and
	// silently never diffed, and a fetch starting before the flight count
	// rises could overtake the diff to the home. Costs are charged after.
	ns.dropTwin(pg)
	ns.state[pg] = pgReadOnly
	if len(offs) > 0 {
		ns.diffFlight[pg]++
		ns.pendingAcks++
	}

	cost := engine.Time(words)*sy.Prm.DiffWordCompareCycles + engine.Time(len(offs))*sy.Prm.DiffWordIncludeCycles
	chargeWork(t, p, handler, cost, stats.DiffTime)

	st := sy.statsProc(ns.id, p)
	st.DiffsCreated++
	st.DiffWords += uint64(len(offs))
	sy.Trace.Emit(sy.Sim.Now(), int32(sy.statsProcID(ns.id, p)), trace.Diff, int64(pg), int64(len(offs)))

	if len(offs) == 0 {
		return
	}
	sy.send(t, newMsg(&sy.slabs.diffs, network.Message{
		Kind:    network.Diff,
		Src:     ns.id,
		Dst:     int(sy.pageHome[pg]),
		SrcProc: sy.statsProcID(ns.id, p),
		Size:    sy.Prm.CtlBytes + sy.Prm.DiffWordBytes*len(offs),
	}, diffMsg{page: pg, offs: offs, vals: vals}), p, true, !handler)
}

// wordAt reads word w of a raw page buffer.
func wordAt(buf []byte, w int) uint64 {
	b := buf[w*8:]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// waitAcks blocks until every outstanding diff/update has been acknowledged
// by its home (the release fence).
func (ns *nodeState) waitAcks(t *engine.Thread, p *node.Processor, handler bool) {
	if ns.pendingAcks == 0 {
		return
	}
	// No BlockedWake here, for the same deadlock reason as protoAcquire.
	start := ns.sys.Sim.Now()
	for ns.pendingAcks > 0 {
		if p != nil {
			p.Where = node.Where{Op: "ack-wait"}
		}
		ns.ackCond.Wait(t)
	}
	if p != nil {
		p.Where = node.Where{}
	}
	if p != nil && !handler {
		p.Book(stats.DiffTime, ns.sys.Sim.Now()-start)
	}
}

// ackBytes is the payload of a diff or update ack.
const ackBytes = 8

// handleDiff applies a diff at the home. It runs on the receiving NI side:
// the NI deposits the words directly into home memory (remote writes), so no
// interrupt and no processor time is consumed; the bus DMA cost was already
// charged by the receive path. An NI-generated ack flows back; t is nil
// unless the ack's post may wait for queue space (mayBlock).
func (sy *System) handleDiff(t *engine.Thread, m *network.Message) {
	d := m.Payload.(*diffMsg)
	nd := sy.Nodes[m.Dst]
	base := sy.PageAddr(d.page)
	for i, off := range d.offs {
		addr := base + uint64(off)*8
		nd.WriteWord(addr, d.vals[i])
		nd.InvalidateRange(addr, 8)
	}
	sy.send(t, newMsg(&sy.slabs.int32s, network.Message{
		Kind:    network.DiffAck,
		Src:     m.Dst,
		Dst:     m.Src,
		SrcProc: sy.Nodes[m.Dst].Procs[0].GlobalID,
		Size:    ackBytes,
	}, d.page), nil, false, false)
}

// handleAck completes one outstanding diff/update at the releasing node.
func (sy *System) handleAck(m *network.Message) {
	ns := sy.ns[m.Dst]
	if ns.pendingAcks <= 0 {
		panic("proto: spurious ack")
	}
	ns.pendingAcks--
	if page, ok := m.Payload.(*int32); ok {
		pg := *page
		if ns.diffFlight[pg] <= 1 {
			delete(ns.diffFlight, pg)
		} else {
			ns.diffFlight[pg]--
		}
	}
	// Every ack may unblock both release fences (pendingAcks == 0) and
	// per-page fetch gates (diffFlight drained); waiters re-check.
	ns.ackCond.Broadcast()
}

// aurcCapture records one automatic-update word bound for the page's home
// node, flushing the coalescing buffer when it fills a packet. The snooping
// hardware does this off the bus: no processor time is charged.
func (ns *nodeState) aurcCapture(t *engine.Thread, p *node.Processor, pg int32, addr uint64, val uint64) {
	sy := ns.sys
	dst := int(sy.pageHome[pg])
	ns.aurcAddrs[dst] = append(ns.aurcAddrs[dst], addr)
	ns.aurcVals[dst] = append(ns.aurcVals[dst], val)
	p.Stats.UpdatesSent++
	capWords := sy.NIs[ns.id][0].Params().MaxPacketBytes / sy.Prm.UpdateWordBytes
	if len(ns.aurcAddrs[dst]) >= capWords {
		ns.aurcFlushDst(t, p, dst)
	}
}

// aurcFlush pushes every coalescing buffer out.
func (ns *nodeState) aurcFlush(t *engine.Thread, p *node.Processor, handler bool) {
	for dst := range ns.aurcAddrs {
		if len(ns.aurcAddrs[dst]) > 0 {
			ns.aurcFlushDst(t, p, dst)
		}
	}
}

// aurcFlushDst sends one destination's buffered updates. Automatic updates
// are pushed by the snooping device/NI pair, so no host overhead is charged,
// but the traffic is attributed to the writing processor.
func (ns *nodeState) aurcFlushDst(t *engine.Thread, p *node.Processor, dst int) {
	sy := ns.sys
	addrs := ns.aurcAddrs[dst]
	vals := ns.aurcVals[dst]
	ns.aurcAddrs[dst] = nil
	ns.aurcVals[dst] = nil
	ns.pendingAcks++
	sy.Trace.Emit(sy.Sim.Now(), int32(sy.statsProcID(ns.id, p)), trace.Update, int64(dst), int64(len(addrs)))
	sy.send(t, ownMsg(network.Message{
		Kind:    network.Update,
		Src:     ns.id,
		Dst:     dst,
		SrcProc: sy.statsProcID(ns.id, p),
		Size:    8 + sy.Prm.UpdateWordBytes*len(addrs),
	}, updateMsg{addrs: addrs, vals: vals}), p, false, false)
}

// handleUpdate applies automatic updates at the home (NI deposit; no
// interrupt) and acks them, as handleDiff does.
func (sy *System) handleUpdate(t *engine.Thread, m *network.Message) {
	u := m.Payload.(*updateMsg)
	nd := sy.Nodes[m.Dst]
	for i, addr := range u.addrs {
		nd.WriteWord(addr, u.vals[i])
		nd.InvalidateRange(addr, 8)
	}
	sy.send(t, sy.slabs.msgs.new(network.Message{
		Kind:    network.UpdateAck,
		Src:     m.Dst,
		Dst:     m.Src,
		SrcProc: sy.Nodes[m.Dst].Procs[0].GlobalID,
		Size:    ackBytes,
	}), nil, false, false)
}

// statsProcID returns the processor to attribute traffic to.
func (sy *System) statsProcID(nodeID int, p *node.Processor) int {
	if p != nil {
		return p.GlobalID
	}
	return sy.Nodes[nodeID].Procs[0].GlobalID
}
