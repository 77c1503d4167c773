// Package network models the cluster interconnect of the simulated SVM
// system: a Myrinet-like system area network with programmable network
// interfaces on the I/O bus. It implements the communication abstraction of
// the paper's methodology section: asynchronous sends posted by the host (the
// host-overhead parameter is charged by the caller), per-packet processing
// occupancy on the NI, node-to-network bandwidth limited by the I/O bus, and
// direct deposit into host memory at the receiver with no processor
// involvement. Links and switches are contention-free (per the paper);
// contention is modeled on the NI engines, the I/O bus, and the host memory
// bus.
package network

import (
	"fmt"
	"math/rand"

	"svmsim/internal/engine"
	"svmsim/internal/memsys"
)

// Kind classifies protocol messages. The network layer is agnostic to kinds
// except for diagnostics; the protocol's deliver upcall dispatches on them.
type Kind int

const (
	// PageRequest asks a home node for a page copy (interrupts the home).
	PageRequest Kind = iota
	// PageReply carries a page back to a faulting node (direct deposit).
	PageReply
	// LockRequest asks a lock manager/owner for a lock (interrupts).
	LockRequest
	// LockGrant hands a lock plus write notices to a waiter (deposit).
	LockGrant
	// LockOwner informs the manager of the new owner node (deposit).
	LockOwner
	// Diff carries an HLRC diff to the home (deposited directly into home
	// memory by the NI; no interrupt).
	Diff
	// DiffAck acknowledges diff application (NI-generated, deposit).
	DiffAck
	// Update carries AURC automatic-update words to the home (deposit).
	Update
	// UpdateAck acknowledges automatic updates at a release fence.
	UpdateAck
	// BarrierArrive announces a node's arrival at a barrier (deposit; the
	// barrier master is blocked polling, so no interrupt).
	BarrierArrive
	// BarrierRelease releases the nodes from a barrier (deposit).
	BarrierRelease
	// TransportAck is the reliable-delivery layer's cumulative ack. It is
	// NI-internal: consumed by the transport filter, never delivered to
	// the protocol.
	TransportAck
	// TransportNack asks the sender to fast-retransmit a missing
	// sequence (gap detected by the resequencing receiver). NI-internal.
	TransportNack
	// Heartbeat is the failure detector's periodic liveness probe
	// (deposit; consumed by the protocol's detector, never interrupts).
	Heartbeat
	// Reconfig announces a reconfiguration round after a node is declared
	// dead (deposit): it carries the membership change to survivors.
	Reconfig
	numKinds
)

var kindNames = [numKinds]string{
	"page-request", "page-reply", "lock-request", "lock-grant", "lock-owner",
	"diff", "diff-ack", "update", "update-ack", "barrier-arrive", "barrier-release",
	"xport-ack", "xport-nack", "heartbeat", "reconfig",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Message is one protocol message. Size is the payload size in bytes;
// per-packet headers are added by the NI according to Params.
type Message struct {
	Kind    Kind
	Src     int // source node ID
	Dst     int // destination node ID
	SrcProc int // global ID of the processor on whose behalf it is sent
	Size    int // payload bytes
	Payload any

	// OnDelivered, if set, runs (in the receiving NI thread's context, at
	// deposit-completion time) after the message has been deposited and the
	// deliver upcall returned. Protocol code uses it for completion fences.
	OnDelivered func()

	// seq is the reliable-delivery sequence number on this (src, dst)
	// pair, assigned by the sending NI at first transmission (zero until
	// then). For transport control packets it carries the cumulative-ack
	// or nacked sequence instead.
	seq uint64
}

// Params are the communication-architecture parameters of the network (the
// independent variables of the paper, plus fixed geometry).
type Params struct {
	// HostOverheadCycles is the sending processor's cost per message, in cycles.
	// It is charged by the *caller* of Post so it can be attributed to the
	// right processor and time category.
	HostOverheadCycles engine.Time
	// NIOccupancyCycles is the NI processing cost per packet, in cycles, charged
	// on both the sending and receiving NI engines.
	NIOccupancyCycles engine.Time
	// IOBytesPerCycle is the I/O bus bandwidth in bytes per processor cycle
	// (numerically equal to MB/s per MHz).
	IOBytesPerCycle float64
	// LinkBytesPerCycle is the link bandwidth (16-bit links at processor
	// speed = 2 bytes/cycle). Links are contention-free.
	LinkBytesPerCycle float64
	// LinkLatencyCycles is the fixed wire+switch latency in cycles. The paper
	// excludes link latency from the study because it is small and constant
	// in SANs; it stays fixed here.
	LinkLatencyCycles engine.Time
	// MaxPacketBytes is the packetization unit for occupancy accounting.
	MaxPacketBytes int
	// HeaderBytes is the per-packet header.
	HeaderBytes int
	// QueueBytes bounds the NI outgoing queue. When a post would overflow
	// it, the posting processor is delayed until the queue drains (the
	// paper: "If the network queues fill, the NI interrupts the main
	// processor and delays it to allow queues to drain"). Zero means the
	// default 1 MB (which, per the paper, is never a bottleneck except
	// under AURC update floods).
	QueueBytes int

	// Fault injects deterministic packet loss, duplication and reordering
	// (see FaultPlan). Nil is the paper's perfectly reliable SAN.
	Fault *FaultPlan

	// Reliable configures the ack/retransmit recovery layer (see
	// ReliableParams). Disabled, every injected fault is unrecovered.
	Reliable ReliableParams

	// Crash schedules crash-stop node failures (see CrashPlan). Nil means
	// every node survives the run, as the paper assumes.
	Crash *CrashPlan
}

// queueBytes returns the effective outgoing queue bound.
func (p *Params) queueBytes() int {
	if p.QueueBytes <= 0 {
		return 1 << 20
	}
	return p.QueueBytes
}

// Packets returns how many packets a payload of n bytes needs.
func (p *Params) Packets(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + p.MaxPacketBytes - 1) / p.MaxPacketBytes
}

// WireBytes returns payload plus per-packet header bytes.
func (p *Params) WireBytes(n int) int {
	return n + p.Packets(n)*p.HeaderBytes
}

// ioCycles converts a byte count to I/O-bus occupancy cycles.
func (p *Params) ioCycles(n int) engine.Time {
	if n <= 0 {
		return 0
	}
	c := float64(n) / p.IOBytesPerCycle
	t := engine.Time(c)
	if float64(t) < c {
		t++
	}
	return t
}

// linkCycles converts a byte count to link transfer cycles.
func (p *Params) linkCycles(n int) engine.Time {
	if n <= 0 {
		return 0
	}
	c := float64(n) / p.LinkBytesPerCycle
	t := engine.Time(c)
	if float64(t) < c {
		t++
	}
	return t
}

// NI is one node's network interface. Its send and receive sides each have a
// processing engine (occupancy) and share the node's I/O bus and memory bus.
type NI struct {
	sim    *engine.Sim
	nodeID int
	params *Params

	// sendName and recvName name the send and receive threads, built once.
	sendName, recvName string

	ioBus  *engine.Resource
	memBus *memsys.Bus

	outEngine *engine.Resource
	inEngine  *engine.Resource

	sendQ      []*Message
	sendQBytes int
	sendSpace  *engine.Cond
	sending    bool
	recvQ      []*Message
	recving    bool

	peers []*NI // indexed by node ID

	// deliver is the protocol upcall, run on the receiving NI thread after
	// the message is deposited in host memory.
	deliver func(t *engine.Thread, m *Message)

	// rng drives this NI's deterministic fault-injection schedule (nil
	// without a FaultPlan).
	rng *rand.Rand
	// relPeers is the per-peer reliable-delivery state (lazily built).
	relPeers []*relPeer
	// seqBuf is the scratch buffer intake hands in-order batches back in.
	seqBuf []*Message

	// MsgsSent, BytesSent, MsgsRecv, BytesRecv count wire traffic
	// (including retransmissions and transport control packets);
	// QueueStalls counts posts delayed by a full outgoing queue (once per
	// stalled post, however long it waits).
	MsgsSent, BytesSent, MsgsRecv, BytesRecv, QueueStalls uint64

	// Fault-injection and recovery counters. Dropped and DupsInjected
	// count faults this NI's send side injected; Dups counts duplicates
	// its receive side discarded; Retransmits, AcksSent, NacksSent and
	// TimeoutFires account the recovery layer's work.
	Dropped, DupsInjected, Dups, Retransmits, AcksSent, NacksSent, TimeoutFires uint64

	// crashed silences this NI after its node crash-stops; peerCrashed
	// records which peers have crashed (their in-flight traffic is
	// discarded on arrival); CrashDrops counts messages discarded by
	// either check.
	crashed     bool
	peerCrashed []bool
	CrashDrops  uint64
	// peerDead marks peers the *protocol* has declared dead (ReclaimPeer):
	// traffic toward them is no longer tracked by the reliable layer, so no
	// fresh retry timers can fire after reconfiguration.
	peerDead []bool
}

// NewNI creates the NI for node nodeID. Wire the full peer set with SetPeers
// before posting.
func NewNI(s *engine.Sim, nodeID int, params *Params, ioBus *engine.Resource, memBus *memsys.Bus,
	deliver func(t *engine.Thread, m *Message)) *NI {
	ni := &NI{
		sim:       s,
		nodeID:    nodeID,
		params:    params,
		sendName:  fmt.Sprintf("ni%d-send", nodeID),
		recvName:  fmt.Sprintf("ni%d-recv", nodeID),
		ioBus:     ioBus,
		memBus:    memBus,
		outEngine: engine.NewResource(s, fmt.Sprintf("ni%d-out", nodeID)),
		inEngine:  engine.NewResource(s, fmt.Sprintf("ni%d-in", nodeID)),
		sendSpace: engine.NewCond(s),
		deliver:   deliver,
	}
	if params.Fault != nil {
		ni.rng = params.Fault.faultRNG(nodeID)
	}
	return ni
}

// SetPeers wires the cluster's NIs together (index = node ID).
func (ni *NI) SetPeers(peers []*NI) { ni.peers = peers }

// NodeID returns the node this NI belongs to.
func (ni *NI) NodeID() int { return ni.nodeID }

// Params returns the NI's communication parameters.
func (ni *NI) Params() *Params { return ni.params }

// Post enqueues m for asynchronous transmission. The caller is responsible
// for charging the host-overhead cycles to the posting processor (so that NI
// internal posts, e.g. acks, incur none). Post takes zero time unless the
// outgoing queue is full, in which case the posting thread t is delayed
// until the queue drains (pass t == nil to skip backpressure — used only by
// NI-internal reposts that cannot block).
func (ni *NI) Post(t *engine.Thread, m *Message) {
	if m.Src != ni.nodeID {
		panic(fmt.Sprintf("network: message src %d posted at node %d", m.Src, ni.nodeID))
	}
	if m.Dst == ni.nodeID {
		panic("network: intra-node message (should be handled in shared memory)")
	}
	if m.Dst < 0 || m.Dst >= len(ni.peers) {
		panic(fmt.Sprintf("network: bad destination node %d", m.Dst))
	}
	wire := ni.params.WireBytes(m.Size)
	if t != nil {
		stalled := false
		for ni.sendQBytes+wire > ni.params.queueBytes() && len(ni.sendQ) > 0 {
			if !stalled {
				// Count the stalled post once, not once per Wait wakeup:
				// a single post can be woken and re-blocked many times
				// while the queue drains.
				stalled = true
				ni.QueueStalls++
			}
			ni.sendSpace.Wait(t)
		}
	}
	ni.sendQBytes += wire
	ni.sendQ = append(ni.sendQ, m)
	ni.startSender()
}

func (ni *NI) startSender() {
	if ni.sending {
		return
	}
	ni.sending = true
	ni.sim.Spawn(ni.sendName, func(t *engine.Thread) {
		for len(ni.sendQ) > 0 {
			m := ni.sendQ[0]
			ni.sendQ = ni.sendQ[1:]
			ni.transmit(t, m)
			ni.sendQBytes -= ni.params.WireBytes(m.Size)
			ni.sendSpace.Broadcast()
		}
		ni.sending = false
	})
}

// transmit runs the send-side pipeline for one message: per-packet NI
// occupancy, DMA of the data from host memory over the memory bus (highest
// priority, per the paper's arbitration order), and the I/O bus crossing.
// Then the message flies over the contention-free link — through the fault
// plan, which may drop, duplicate or delay it. Retransmissions re-enter here
// and pay the full pipeline again.
func (ni *NI) transmit(t *engine.Thread, m *Message) {
	if ni.crashed {
		// A crashed node's NI sends nothing: whatever its zombie threads
		// still try to emit dies silently at the (dead) send engine.
		ni.CrashDrops++
		return
	}
	p := ni.params
	wire := p.WireBytes(m.Size)
	npkts := p.Packets(m.Size)
	ni.MsgsSent++
	ni.BytesSent += uint64(wire)

	// NI engine prepares all packets of this message.
	if occ := p.NIOccupancyCycles * engine.Time(npkts); occ > 0 {
		ni.outEngine.Use(t, 0, occ)
	}
	// Fetch the data from host memory (only the payload lives in memory;
	// headers are NI-generated).
	if m.Size > 0 {
		ni.memBus.DMA(t, memsys.PrioNIOut, m.Size, p.MaxPacketBytes)
	}
	// Cross the I/O bus.
	if c := p.ioCycles(wire); c > 0 {
		ni.ioBus.Use(t, 0, c)
	}
	// Reliable delivery: sequence the message and arm its retransmit timer
	// (counted from the moment it reaches the wire).
	if p.Reliable.Enabled && !isTransport(m.Kind) &&
		!(ni.peerDead != nil && ni.peerDead[m.Dst]) {
		if pt := ni.track(m); pt != nil {
			ni.armTimer(pt)
		}
	}
	// Link flight: contention-free, latency + serialization, subject to
	// fault injection. Delivery is a typed event (the destination NI is
	// its own event target), so wire flight allocates nothing per packet.
	flight := p.LinkLatencyCycles + p.linkCycles(wire)
	dst := ni.peers[m.Dst]
	copies, extra := ni.inject(m)
	for i := 0; i < copies; i++ {
		ni.sim.AtTarget(flight+extra, dst, m)
	}
}

// HandleEvent implements engine.EventTarget: a message finishing its wire
// flight toward this NI.
func (ni *NI) HandleEvent(arg any) { ni.arrive(arg.(*Message)) }

// arrive queues a message on the receive side.
func (ni *NI) arrive(m *Message) {
	if ni.crashed || (ni.peerCrashed != nil && ni.peerCrashed[m.Src]) {
		// Wire transfers touching a crashed node vanish: a dead NI hears
		// nothing, and packets a node had in flight when it crashed never
		// materialize at survivors.
		ni.CrashDrops++
		return
	}
	ni.recvQ = append(ni.recvQ, m)
	ni.startReceiver()
}

func (ni *NI) startReceiver() {
	if ni.recving {
		return
	}
	ni.recving = true
	ni.sim.Spawn(ni.recvName, func(t *engine.Thread) {
		for len(ni.recvQ) > 0 {
			m := ni.recvQ[0]
			ni.recvQ = ni.recvQ[1:]
			ni.receive(t, m)
		}
		ni.recving = false
	})
}

// receive runs the receive-side pipeline: per-packet occupancy and the I/O
// bus crossing are paid for every arrival (the packet crossed the wire, real
// or duplicate). With reliable delivery on, the transport filter then
// dedups, resequences and acks; only in-order messages are deposited.
func (ni *NI) receive(t *engine.Thread, m *Message) {
	p := ni.params
	wire := p.WireBytes(m.Size)
	npkts := p.Packets(m.Size)
	ni.MsgsRecv++
	ni.BytesRecv += uint64(wire)

	if occ := p.NIOccupancyCycles * engine.Time(npkts); occ > 0 {
		ni.inEngine.Use(t, 0, occ)
	}
	if c := p.ioCycles(wire); c > 0 {
		ni.ioBus.Use(t, 0, c)
	}
	if p.Reliable.Enabled {
		for _, rm := range ni.intake(m) {
			ni.deposit(t, rm)
		}
		return
	}
	ni.deposit(t, m)
}

// deposit writes a message into host memory over the memory bus (lowest
// arbitration priority) and runs the protocol upcall and completion fence.
func (ni *NI) deposit(t *engine.Thread, m *Message) {
	if m.Size > 0 {
		ni.memBus.DMA(t, memsys.PrioNIIn, m.Size, ni.params.MaxPacketBytes)
	}
	if ni.deliver != nil {
		ni.deliver(t, m)
	}
	if m.OnDelivered != nil {
		m.OnDelivered()
	}
}
