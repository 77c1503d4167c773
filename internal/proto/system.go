package proto

import (
	"fmt"

	"svmsim/internal/engine"
	"svmsim/internal/interrupts"
	"svmsim/internal/network"
	"svmsim/internal/node"
	"svmsim/internal/stats"
	"svmsim/internal/trace"
)

// SystemConfig assembles a full simulated SVM cluster.
type SystemConfig struct {
	Nodes        int
	ProcsPerNode int
	// HeapBytes bounds the shared heap (see Alloc); node images grow only
	// to the allocated pages.
	HeapBytes uint64

	NodePrm  node.Params
	NetPrm   network.Params
	ProtoPrm Params

	IntrIssueCycles   engine.Time
	IntrDeliverCycles engine.Time
	IntrPolicy        interrupts.Policy

	// Requests selects interrupt, polling or dedicated-processor handling
	// of incoming page and lock requests (the paper's proposed interrupt
	// avoidance schemes).
	Requests interrupts.Handling

	// NIServePages serves page requests on the network interface's own
	// processor instead of interrupting the host (the paper's "move
	// protocol processing to the network processor" direction).
	NIServePages bool

	// NIsPerNode replicates the network interface (and its I/O bus) to
	// increase node-to-network bandwidth; messages are routed to NI
	// dst mod NIsPerNode, preserving per-pair FIFO order.
	NIsPerNode int

	// Trace, when non-nil, records time-stamped protocol events.
	Trace *trace.Recorder
}

// niPageServeCycles is the NI-processor cost to serve one page request under
// NIServePages: about 8x the host page handler, since programmable NI
// assists run on slow cores.
const niPageServeCycles engine.Time = 1600

// System is one simulated SVM cluster: nodes, network interfaces, interrupt
// controllers and all protocol state.
type System struct {
	Sim   *engine.Sim
	Cfg   SystemConfig
	Prm   Params
	Nodes []*node.Node
	// NIs is indexed [node][channel] (NIsPerNode channels per node).
	NIs  [][]*network.NI
	Intc []*interrupts.Controller
	// Procs is the flat processor list, global ID order.
	Procs []*node.Processor

	pages    int
	pageHome []int32 // -1 until assigned
	ns       []*nodeState

	locks []*lockGlobal
	bar   *barrierState
	// fd is the heartbeat failure detector (nil when the protocol's
	// HeartbeatIntervalCycles is zero: the paper's fault-free cluster).
	fd *failureDetector

	// Trace records protocol events when enabled (nil otherwise).
	Trace *trace.Recorder

	nextAlloc uint64

	slabs slabs
}

// nodeState is the per-node protocol state.
type nodeState struct {
	sys *System
	id  int

	state      []pageState
	twins      map[int32][]byte
	fetching   map[int32]bool
	fetchEpoch map[int32]uint32
	fetchCond  *engine.Cond
	// spareTwins holds twin buffers of this node that no page uses now; a
	// twin never leaves its node.
	spareTwins [][]byte

	vc       []uint32
	interval uint32
	dirty    map[int32]struct{}
	// log[origin] holds notices of origin's intervals, ascending. Entries
	// with interval <= logBase[origin] have been truncated: after a
	// barrier every node knows everything up to the merged clock, so no
	// future acquirer can ever need them (see truncateLog).
	log     [][]Notice
	logBase []uint32
	// lastBarrierVC summarizes notices already exchanged at the last
	// barrier.
	lastBarrierVC []uint32

	// protoMu serializes node-level protocol transitions (interval close).
	protoBusy bool
	protoCond *engine.Cond

	pendingAcks int
	// diffFlight counts unacknowledged diffs per page: a page must not be
	// re-fetched while this node's own flush of it is still in flight, or
	// the reply (snapshotted at the home pre-flush) would resurrect stale
	// data over the node's own newer writes.
	diffFlight map[int32]int
	ackCond    *engine.Cond

	// AURC per-destination-node coalescing buffers (index = home node).
	aurcAddrs [][]uint64
	aurcVals  [][]uint64

	locks []*lockNode
	// lockWait[i] is where local processor i waits for a lock, queued
	// behind a local holder or for a remote grant; a processor waits for
	// at most one lock at a time.
	lockWait []*engine.Cond

	// Scratch for building a notice list, an interval's page list and a
	// diff's words. What a message or the log keeps is an exact copy
	// carved from a slab, taken before anything yields.
	noticeBuf []Notice
	pageBuf   []int32
	offBuf    []uint16
	wordBuf   []uint64
}

// NewSystem builds the cluster.
func NewSystem(s *engine.Sim, cfg SystemConfig) *System {
	if cfg.Nodes <= 0 || cfg.ProcsPerNode <= 0 {
		panic("proto: invalid cluster size")
	}
	if cfg.HeapBytes%uint64(cfg.ProtoPrm.PageBytes) != 0 {
		cfg.HeapBytes += uint64(cfg.ProtoPrm.PageBytes) - cfg.HeapBytes%uint64(cfg.ProtoPrm.PageBytes)
	}
	if cfg.NIsPerNode <= 0 {
		cfg.NIsPerNode = 1
	}
	sy := &System{Sim: s, Cfg: cfg, Prm: cfg.ProtoPrm, Trace: cfg.Trace}
	sy.pages = int(cfg.HeapBytes) / cfg.ProtoPrm.PageBytes
	sy.pageHome = make([]int32, sy.pages)
	for i := range sy.pageHome {
		sy.pageHome[i] = -1
	}
	if cfg.ProtoPrm.Homes == RoundRobin {
		for i := range sy.pageHome {
			sy.pageHome[i] = int32(i % cfg.Nodes)
		}
	}
	for n := 0; n < cfg.Nodes; n++ {
		nd := node.New(s, n, cfg.ProcsPerNode, cfg.NodePrm, n*cfg.ProcsPerNode)
		sy.Nodes = append(sy.Nodes, nd)
		sy.Procs = append(sy.Procs, nd.Procs...)
		intc := interrupts.New(nd, cfg.IntrIssueCycles, cfg.IntrDeliverCycles, cfg.IntrPolicy)
		intc.Mode = cfg.Requests
		sy.Intc = append(sy.Intc, intc)
		ns := &nodeState{
			sys:           sy,
			id:            n,
			state:         make([]pageState, sy.pages),
			twins:         make(map[int32][]byte),
			fetching:      make(map[int32]bool),
			fetchEpoch:    make(map[int32]uint32),
			fetchCond:     engine.NewCond(s),
			vc:            make([]uint32, cfg.Nodes),
			dirty:         make(map[int32]struct{}),
			log:           make([][]Notice, cfg.Nodes),
			logBase:       make([]uint32, cfg.Nodes),
			lastBarrierVC: make([]uint32, cfg.Nodes),
			protoCond:     engine.NewCond(s),
			ackCond:       engine.NewCond(s),
			diffFlight:    make(map[int32]int),
			aurcAddrs:     make([][]uint64, cfg.Nodes),
			aurcVals:      make([][]uint64, cfg.Nodes),
			lockWait:      make([]*engine.Cond, cfg.ProcsPerNode),
		}
		for i := range ns.lockWait {
			ns.lockWait[i] = engine.NewCond(s)
		}
		sy.ns = append(sy.ns, ns)
	}
	netPrm := cfg.NetPrm // one shared copy; NIs keep the pointer
	sy.NIs = make([][]*network.NI, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		nd := sy.Nodes[n]
		for k := 0; k < cfg.NIsPerNode; k++ {
			io := nd.IOBus
			if k > 0 {
				// Each extra NI brings its own I/O bus (the point of
				// replicating interfaces is more node-to-network bandwidth).
				io = engine.NewResource(s, fmt.Sprintf("node%d-iobus%d", n, k))
			}
			ni := network.NewNI(s, n, &netPrm, io, nd.Bus, sy.deliver)
			sy.NIs[n] = append(sy.NIs[n], ni)
		}
	}
	for k := 0; k < cfg.NIsPerNode; k++ {
		channel := make([]*network.NI, cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			channel[n] = sy.NIs[n][k]
		}
		for n := 0; n < cfg.Nodes; n++ {
			sy.NIs[n][k].SetPeers(channel)
		}
	}
	sy.bar = newBarrier(sy)
	if cfg.ProtoPrm.HeartbeatIntervalCycles > 0 {
		sy.fd = newFailureDetector(sy)
	}
	return sy
}

// PageOf returns the page index containing addr.
func (sy *System) PageOf(addr uint64) int32 {
	return int32(addr / uint64(sy.Prm.PageBytes))
}

// PageAddr returns the base address of page pg.
func (sy *System) PageAddr(pg int32) uint64 {
	return uint64(pg) * uint64(sy.Prm.PageBytes)
}

// Home returns the home node of page pg, or -1 if unassigned (first touch
// pending).
func (sy *System) Home(pg int32) int32 { return sy.pageHome[pg] }

// Alloc reserves size bytes of shared address space aligned to align and
// returns the base address. It grows every node's memory image to cover the
// allocation, rounded up to a whole page: page copies (twins, page serves
// and installs) move whole pages, so a partly allocated last page must be
// backed too. It never assigns homes; those follow the home policy (or
// SetHome).
func (sy *System) Alloc(size uint64, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	a := (sy.nextAlloc + align - 1) &^ (align - 1)
	if a+size > uint64(sy.pages)*uint64(sy.Prm.PageBytes) {
		panic(fmt.Sprintf("proto: shared heap exhausted (want %d at %d, heap %d)", size, a, sy.Cfg.HeapBytes))
	}
	sy.nextAlloc = a + size
	page := uint64(sy.Prm.PageBytes)
	end := (sy.nextAlloc + page - 1) / page * page
	for _, nd := range sy.Nodes {
		nd.Grow(end)
	}
	return a
}

// AllocPages reserves size bytes page-aligned.
func (sy *System) AllocPages(size uint64) uint64 {
	return sy.Alloc(size, uint64(sy.Prm.PageBytes))
}

// SetHome explicitly homes every page intersecting [addr, addr+size) at
// nodeID. Pages already homed elsewhere are re-homed only if untouched
// (state invalid everywhere); callers should distribute before first use.
func (sy *System) SetHome(addr, size uint64, nodeID int) {
	first := sy.PageOf(addr)
	last := sy.PageOf(addr + size - 1)
	for pg := first; pg <= last; pg++ {
		sy.pageHome[pg] = int32(nodeID)
		sy.ns[nodeID].state[pg] = pgReadOnly
	}
}

// statsFor returns the stats sink for a processor, or the node's proc 0 for
// NI-generated traffic.
func (sy *System) statsProc(nodeID int, p *node.Processor) *stats.Proc {
	if p != nil {
		return p.Stats
	}
	return sy.Nodes[nodeID].Procs[0].Stats
}

// send posts m from node m.Src, attributing traffic statistics to p (or the
// node's processor 0 when p is nil). When overhead is true the calling
// thread pays the host-overhead cycles for the send; app additionally books
// them as send-overhead time (handler threads are accounted through the
// interrupt steal bracket instead, and NI-generated traffic such as acks and
// automatic updates incurs no host overhead at all).
// niFor routes a message to its channel NI: fixed per destination so that
// per-(src,dst) FIFO ordering is preserved across multiple interfaces.
func (sy *System) niFor(src, dst int) *network.NI {
	return sy.NIs[src][dst%len(sy.NIs[src])]
}

func (sy *System) send(t *engine.Thread, m *network.Message, p *node.Processor, overhead, app bool) {
	prm := sy.niFor(m.Src, m.Dst).Params()
	st := sy.statsProc(m.Src, p)
	st.MsgsSent++
	st.BytesSent += uint64(prm.WireBytes(m.Size))
	if overhead && p != nil && prm.HostOverheadCycles > 0 {
		t.Delay(prm.HostOverheadCycles)
		if app {
			p.Book(stats.SendOverhead, prm.HostOverheadCycles)
		}
	}
	sy.niFor(m.Src, m.Dst).Post(t, m)
}

// deliver is the NI upcall for every arriving message (network.Deliver). It
// runs in scheduler context, with t nil, unless the delivery may block: then
// it declines, and runs again on the receiving NI thread.
func (sy *System) deliver(t *engine.Thread, m *network.Message) bool {
	if t == nil && sy.mayBlock(m) {
		return false
	}
	switch m.Kind {
	case network.PageRequest:
		if sy.Cfg.NIServePages {
			// The programmable NI serves the fetch itself: no interrupt,
			// no host processor involvement, but the (slow) NI core is
			// occupied and later arrivals on this interface wait.
			t.Delay(niPageServeCycles)
			sy.servePageRequest(t, nil, m)
			return true
		}
		sy.Trace.Emit(sy.Sim.Now(), -1, trace.Interrupt, int64(m.Dst), int64(m.Kind))
		sy.Intc[m.Dst].Raise("page", sy, m)
	case network.LockRequest:
		sy.Trace.Emit(sy.Sim.Now(), -1, trace.Interrupt, int64(m.Dst), int64(m.Kind))
		sy.Intc[m.Dst].Raise("lock", sy, m)
	case network.PageReply:
		sy.handlePageReply(m)
	case network.LockGrant:
		sy.handleLockGrant(m)
	case network.LockOwner:
		sy.handleLockOwner(m)
	case network.Diff:
		sy.handleDiff(t, m)
	case network.Update:
		sy.handleUpdate(t, m)
	case network.DiffAck, network.UpdateAck:
		sy.handleAck(m)
	case network.BarrierArrive:
		sy.bar.handleArrive(m)
	case network.BarrierRelease:
		sy.bar.handleRelease(m)
	case network.Heartbeat:
		sy.fd.onHeartbeat(m)
	case network.Reconfig:
		// Membership repair is performed centrally by the detecting node's
		// reconfiguration round; the message models its wire cost.
	default:
		panic("proto: unknown message kind " + m.Kind.String())
	}
	return true
}

// HandleRequest implements interrupts.Handler: it serves a page or lock
// request on the handler thread t of the victim processor.
func (sy *System) HandleRequest(t *engine.Thread, victim *node.Processor, m *network.Message) {
	if m.Kind == network.PageRequest {
		sy.handlePageRequest(t, victim, m)
	} else {
		sy.handleLockRequest(t, victim, m)
	}
}

// mayBlock reports whether delivering m may block its thread: an NI page
// serve occupies the NI core, and a diff or update posts its ack, which
// waits while the outgoing queue is full. Every other delivery, interrupts
// included, only records state and schedules events.
func (sy *System) mayBlock(m *network.Message) bool {
	switch m.Kind {
	case network.PageRequest:
		return sy.Cfg.NIServePages
	case network.Diff, network.Update:
		return sy.niFor(m.Dst, m.Src).Full(ackBytes)
	}
	return false
}
