// Reliable delivery: an ack/retransmit layer on the NI pipeline, modeling a
// network interface that recovers from the faults a FaultPlan injects. Each
// (sender, receiver) pair carries per-peer sequence numbers; the receiving
// NI delivers strictly in sequence order (resequencing out-of-order
// arrivals, discarding duplicates) and returns cumulative acks, plus a nack
// when it detects a gap so the sender can retransmit before its timer
// expires. Unacked messages are retransmitted on a timeout with exponential
// backoff, through the full send pipeline — retransmissions and control
// packets pay real NI occupancy and I/O-bus cycles, so recovery cost is a
// first-class communication parameter, not a free abstraction. A bounded
// retry budget turns a dead link into a structured *LinkFailureError
// (surfaced through engine.Sim.Fail) instead of an unbounded retransmit
// storm.
package network

import (
	"fmt"

	"svmsim/internal/engine"
)

// UnboundedRetries disables the retry budget (MaxRetries); a dead link then
// retransmits forever, which only the engine's progress watchdog stops. It
// exists to exercise livelock detection; production configurations should
// keep a bounded budget.
const UnboundedRetries = -1

// ReliableParams configures the reliable-delivery layer.
type ReliableParams struct {
	// Enabled turns the layer on. Off (the default), the network is the
	// paper's exactly-once SAN — unless a FaultPlan injects faults, which
	// are then unrecovered.
	Enabled bool
	// RetryTimeoutCycles is the base retransmit timeout, armed at each
	// transmission. Zero means the default (200000 cycles, comfortably
	// above a loaded page-fetch round trip at the achievable parameters).
	RetryTimeoutCycles engine.Time
	// BackoffFactorPct scales the timeout per retransmission, in percent
	// (200 = double each time). Zero means the default 200; values below
	// 100 are clamped to 100 (no shrinking timeouts).
	BackoffFactorPct int
	// MaxRetries bounds retransmissions per message; exceeding it surfaces
	// a *LinkFailureError and aborts the run. Zero means the default (8);
	// UnboundedRetries disables the bound.
	MaxRetries int
}

func (rp *ReliableParams) retryTimeoutCycles() engine.Time {
	if rp.RetryTimeoutCycles == 0 {
		return 200_000
	}
	return rp.RetryTimeoutCycles
}

func (rp *ReliableParams) backoffFactorPct() int {
	if rp.BackoffFactorPct == 0 {
		return 200
	}
	if rp.BackoffFactorPct < 100 {
		return 100
	}
	return rp.BackoffFactorPct
}

func (rp *ReliableParams) maxRetries() int {
	if rp.MaxRetries == 0 {
		return 8
	}
	if rp.MaxRetries < 0 {
		return UnboundedRetries
	}
	return rp.MaxRetries
}

// timeoutAfter returns the timeout to arm after the attempts-th transmission
// (attempts >= 1), applying exponential backoff.
func (rp *ReliableParams) timeoutAfter(attempts int) engine.Time {
	t := rp.retryTimeoutCycles()
	pct := engine.Time(rp.backoffFactorPct())
	for i := 1; i < attempts; i++ {
		t = t * pct / 100
	}
	if t == 0 {
		t = 1
	}
	return t
}

// Key returns a deterministic textual descriptor for experiment memo caches.
func (rp ReliableParams) Key() string {
	if !rp.Enabled {
		return "off"
	}
	return fmt.Sprintf("t%d/b%d/r%d", rp.retryTimeoutCycles(), rp.backoffFactorPct(), rp.maxRetries())
}

// LinkFailureError reports that one message exhausted its retry budget: the
// link src->dst is effectively dead for this traffic.
type LinkFailureError struct {
	Src, Dst  int
	Kind      Kind
	Seq       uint64
	Attempts  int
	NowCycles engine.Time
}

func (e *LinkFailureError) Error() string {
	return fmt.Sprintf("network: link %d->%d failed: %s seq %d undelivered after %d attempts (cycle %d)",
		e.Src, e.Dst, e.Kind, e.Seq, e.Attempts, e.NowCycles)
}

// relPeer holds one NI's transport state toward (and from) one peer:
// sender-side sequencing and pending retransmit queue for traffic we send to
// the peer, receiver-side resequencing for traffic the peer sends us.
type relPeer struct {
	// Sender side.
	nextSeq uint64
	pending []*pendingTx // unacked, ascending sequence

	// Receiver side.
	expected uint64              // next in-order sequence to deliver
	held     map[uint64]*Message // out-of-order arrivals awaiting the gap fill
	nackedAt uint64              // expected value when the last nack was sent
}

// pendingTx is one unacknowledged message on the sender side. It doubles as
// the typed target of its own retransmit-timer events, so arming a timer
// allocates nothing beyond the pendingTx itself (one per message).
type pendingTx struct {
	ni       *NI
	m        *Message
	attempts int // transmissions so far
	acked    bool
	timerAt  engine.Time // fire time of the most recently armed timer
	nacked   bool        // fast retransmit already issued this timeout window
}

// HandleEvent implements engine.EventTarget: the retransmit timer.
func (pt *pendingTx) HandleEvent(any) { pt.ni.onRetryTimer(pt) }

// rel returns (lazily creating) the transport state toward peer.
func (ni *NI) rel(peer int) *relPeer {
	if ni.relPeers == nil {
		ni.relPeers = make([]*relPeer, len(ni.peers))
	}
	rp := ni.relPeers[peer]
	if rp == nil {
		rp = &relPeer{expected: 1, held: make(map[uint64]*Message)}
		ni.relPeers[peer] = rp
	}
	return rp
}

// isTransport reports whether kind is NI-internal recovery traffic, which is
// itself unsequenced (loss is recovered by retransmit timers instead).
func isTransport(kind Kind) bool {
	return kind == TransportAck || kind == TransportNack
}

// track assigns a sequence number on first transmission and returns the
// message's pending entry, bumping its attempt count. Called from transmit
// for every sequenced transmission, fresh or retransmitted.
func (ni *NI) track(m *Message) *pendingTx {
	rp := ni.rel(m.Dst)
	if m.seq == 0 {
		rp.nextSeq++
		m.seq = rp.nextSeq
		pt := &pendingTx{ni: ni, m: m}
		rp.pending = append(rp.pending, pt)
	}
	pt := rp.find(m.seq)
	if pt == nil {
		// Acked while a retransmission sat in the send queue: transmit the
		// copy anyway (it is already charged), but track nothing.
		return nil
	}
	pt.attempts++
	if pt.attempts > 1 {
		ni.Retransmits++
	}
	return pt
}

// find returns the pending entry for seq, or nil if already acked.
func (rp *relPeer) find(seq uint64) *pendingTx {
	for _, pt := range rp.pending {
		if pt.m.seq == seq {
			return pt
		}
	}
	return nil
}

// armTimer schedules the retransmit timer for pt's current attempt.
func (ni *NI) armTimer(pt *pendingTx) {
	d := ni.params.Reliable.timeoutAfter(pt.attempts)
	pt.timerAt = ni.sim.Now() + d
	pt.nacked = false
	ni.sim.AtTarget(d, pt, nil)
}

// onRetryTimer handles a retransmit-timer expiry: stale and acked timers are
// ignored; a live one either retransmits or, past the retry budget, fails
// the link.
func (ni *NI) onRetryTimer(pt *pendingTx) {
	if pt.acked || ni.sim.Now() != pt.timerAt {
		return
	}
	if ni.crashed {
		// A dead NI retransmits nothing and cannot fail the run.
		return
	}
	ni.TimeoutFires++
	if max := ni.params.Reliable.maxRetries(); max != UnboundedRetries && pt.attempts-1 >= max {
		ni.sim.Fail(&LinkFailureError{
			Src: ni.nodeID, Dst: pt.m.Dst, Kind: pt.m.Kind, Seq: pt.m.seq,
			Attempts: pt.attempts, NowCycles: ni.sim.Now(),
		})
		return
	}
	ni.repost(pt.m)
}

// repost enqueues a message on the outgoing queue from NI-internal context
// (retransmissions and control packets): no backpressure, the NI cannot
// block itself.
func (ni *NI) repost(m *Message) {
	ni.tx.enqueue(m, ni.params.WireBytes(m.Size))
}

// sendCtl emits a transport control packet (header-only on the wire). The
// sequence field carries the cumulative ack or the nacked sequence.
func (ni *NI) sendCtl(kind Kind, dst int, seq uint64) {
	if kind == TransportAck {
		ni.AcksSent++
	} else {
		ni.NacksSent++
	}
	ni.repost(&Message{Kind: kind, Src: ni.nodeID, Dst: dst, seq: seq})
}

// onAck retires every pending message to src with sequence <= cum.
func (ni *NI) onAck(src int, cum uint64) {
	rp := ni.rel(src)
	keep := rp.pending[:0]
	for _, pt := range rp.pending {
		if pt.m.seq <= cum {
			pt.acked = true
		} else {
			keep = append(keep, pt)
		}
	}
	for i := len(keep); i < len(rp.pending); i++ {
		rp.pending[i] = nil
	}
	rp.pending = keep
}

// onNack fast-retransmits the named sequence, at most once per timeout
// window (the timer covers repeated loss).
func (ni *NI) onNack(src int, seq uint64) {
	if pt := ni.rel(src).find(seq); pt != nil && !pt.nacked {
		pt.nacked = true
		ni.repost(pt.m)
	}
}

// intake is the receive-side transport filter, run after the packet has paid
// occupancy and I/O-bus cycles. It appends to ready the messages to deposit
// and deliver in order (none for control packets, duplicates and
// out-of-order holds), and sends acks/nacks as needed. It never blocks.
func (ni *NI) intake(ready []*Message, m *Message) []*Message {
	switch m.Kind {
	case TransportAck:
		ni.onAck(m.Src, m.seq)
		return ready
	case TransportNack:
		ni.onNack(m.Src, m.seq)
		return ready
	}
	rp := ni.rel(m.Src)
	if m.seq < rp.expected {
		// Duplicate of an already-delivered message (injected dup or a
		// retransmit whose ack was lost): discard, but re-ack so the
		// sender stops retransmitting.
		ni.Dups++
		ni.sendCtl(TransportAck, m.Src, rp.expected-1)
		return ready
	}
	if m.seq > rp.expected {
		if _, have := rp.held[m.seq]; have {
			ni.Dups++
			return ready
		}
		rp.held[m.seq] = m
		if rp.nackedAt != rp.expected {
			// First evidence of this gap: ask for the missing message.
			rp.nackedAt = rp.expected
			ni.sendCtl(TransportNack, m.Src, rp.expected)
		}
		return ready
	}
	// In order: deliver it plus any consecutive held messages behind it.
	ready = append(ready, m)
	rp.expected++
	for {
		next, ok := rp.held[rp.expected]
		if !ok {
			break
		}
		delete(rp.held, rp.expected)
		ready = append(ready, next)
		rp.expected++
	}
	rp.nackedAt = 0
	ni.sendCtl(TransportAck, m.Src, rp.expected-1)
	return ready
}
