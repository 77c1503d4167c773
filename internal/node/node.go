// Package node models one SMP node of the simulated cluster: a set of
// processors with private L1/L2 caches and write buffers, a shared
// split-transaction memory bus, an I/O bus, and the node's image of the
// shared virtual address space. Data always lives in the node memory image;
// caches and write buffers are timing models only, which keeps application
// data correctness orthogonal to timing fidelity. The image covers only the
// allocated part of the shared address space: it starts empty, and the
// protocol layer grows it in whole pages as the application allocates.
package node

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"svmsim/internal/engine"
	"svmsim/internal/memsys"
	"svmsim/internal/stats"
)

// Params are the fixed architectural parameters of a node (Section 2 of the
// paper; absolute values reconstructed, see DESIGN.md).
type Params struct {
	LineBytes   int
	L1Bytes     int
	L1Assoc     int
	L2Bytes     int
	L2Assoc     int
	L1HitCycles engine.Time
	L2HitCycles engine.Time

	WBEntries  int
	WBRetireAt int

	BusWidthBytes int
	BusRatio      engine.Time // processor cycles per bus cycle
	BusArbCycles  engine.Time // bus cycles
	BusAddrCycles engine.Time // bus cycles
	DRAMCycles    engine.Time // processor cycles

	// SyncQuantumCycles bounds how many fast-path cycles a processor may
	// accumulate before synchronizing with the global event schedule.
	SyncQuantumCycles engine.Time

	// PollTaxPerMille inflates every charged cycle by this many parts per
	// thousand, modeling the continuous instrumentation overhead of a
	// polling-based protocol (zero when interrupts are used).
	PollTaxPerMille uint64
}

// DefaultParams returns the baseline node architecture.
func DefaultParams() Params {
	return Params{
		LineBytes:         32,
		L1Bytes:           8 << 10,
		L1Assoc:           1,
		L2Bytes:           128 << 10,
		L2Assoc:           2,
		L1HitCycles:       1,
		L2HitCycles:       8,
		WBEntries:         8,
		WBRetireAt:        4,
		BusWidthBytes:     8,
		BusRatio:          4,
		BusArbCycles:      1,
		BusAddrCycles:     1,
		DRAMCycles:        28,
		SyncQuantumCycles: 2000,
	}
}

// Node is one SMP node.
type Node struct {
	ID    int
	Sim   *engine.Sim
	Prm   Params
	Mem   []byte // image of the allocated shared address space (see Grow)
	Bus   *memsys.Bus
	IOBus *engine.Resource
	Procs []*Processor
}

// New builds a node with nprocs processors and an empty memory image.
func New(s *engine.Sim, id, nprocs int, prm Params, firstGlobalID int) *Node {
	n := &Node{
		ID:    id,
		Sim:   s,
		Prm:   prm,
		Bus:   memsys.NewBus(s, fmt.Sprintf("node%d-bus", id), prm.BusWidthBytes, prm.BusRatio, prm.BusArbCycles, prm.BusAddrCycles, prm.DRAMCycles),
		IOBus: engine.NewResource(s, fmt.Sprintf("node%d-iobus", id)),
	}
	for i := 0; i < nprocs; i++ {
		n.Procs = append(n.Procs, newProcessor(n, firstGlobalID+i, i))
	}
	return n
}

// Grow extends the memory image with zeros to at least size bytes; it never
// shrinks it and keeps its contents. Growing may reallocate Mem, which is
// safe only because no code holds a sub-slice of Mem across a yield: every
// access indexes n.Mem afresh, and page copies finish before the copying
// thread can yield.
func (n *Node) Grow(size uint64) {
	if have := uint64(len(n.Mem)); size > have {
		n.Mem = append(n.Mem, make([]byte, size-have)...)
	}
}

// ReadWord reads the 8-byte word at addr from the node memory image.
func (n *Node) ReadWord(addr uint64) uint64 {
	return binary.LittleEndian.Uint64(n.Mem[addr:])
}

// WriteWord writes the 8-byte word at addr in the node memory image.
func (n *Node) WriteWord(addr uint64, v uint64) {
	binary.LittleEndian.PutUint64(n.Mem[addr:], v)
}

// InvalidateRange removes [addr, addr+size) from every processor's caches
// and write buffers on this node (used after NI deposits and page
// invalidations, modeling DMA coherence).
func (n *Node) InvalidateRange(addr uint64, size int) {
	start := addr &^ (uint64(n.Prm.LineBytes) - 1)
	end := addr + uint64(size)
	for _, p := range n.Procs {
		p.L1.InvalidateRange(addr, size)
		p.L2.InvalidateRange(addr, size)
		p.WB.DropRange(start, end)
	}
}

// Processor is one simulated CPU.
type Processor struct {
	GlobalID int
	LocalID  int
	Node     *Node

	L1 *memsys.Cache
	L2 *memsys.Cache
	WB *memsys.WriteBuffer

	Thread *engine.Thread
	Stats  *stats.Proc

	// Where is a diagnostic breadcrumb of the last blocking protocol
	// operation, reported on a stall.
	Where Where

	// HandlerRes serializes interrupt handlers on this CPU.
	HandlerRes *engine.Resource

	handlerActive int
	handlerIdle   *engine.Cond

	intrSteal engine.Time // handler-busy cycles, monotonic
	intrSeen  engine.Time // portion already absorbed by the app thread
	lag       engine.Time // fast-path cycles not yet advanced in the engine
}

// Where is a processor's breadcrumb: the blocking operation it last entered
// and the numbers that operation names. Blocking sets it often and a stall
// report reads it rarely, so it keeps the values and formats them only when
// read.
type Where struct {
	Op  string // the operation, such as "fetch-wait"; empty while running
	Arg string // the operand's name, "pg" or "lock"; empty for none
	N   int64  // the operand

	// Fetch marks a page fetch, which also reports the page's fetch epoch
	// and in-flight flag as they stood at the wait.
	Fetch    bool
	Epoch    uint32
	Fetching bool

	// Drains counts the waits for this CPU's interrupt handlers since Op
	// was set (BlockedWake).
	Drains int
}

// String formats the breadcrumb, such as "fetch-wait pg=3 epoch=1
// fetching=true" or "lock-grant-wake lock=0 [handler-drain]".
func (w Where) String() string {
	s := w.Op
	if w.Arg != "" {
		s += " " + w.Arg + "=" + strconv.FormatInt(w.N, 10)
	}
	if w.Fetch {
		s += fmt.Sprintf(" epoch=%d fetching=%v", w.Epoch, w.Fetching)
	}
	for i := 0; i < w.Drains; i++ {
		s += " [handler-drain]"
	}
	return s
}

func newProcessor(n *Node, globalID, localID int) *Processor {
	p := &Processor{
		GlobalID:    globalID,
		LocalID:     localID,
		Node:        n,
		L1:          memsys.NewCache(n.Prm.L1Bytes, n.Prm.L1Assoc, n.Prm.LineBytes),
		L2:          memsys.NewCache(n.Prm.L2Bytes, n.Prm.L2Assoc, n.Prm.LineBytes),
		HandlerRes:  engine.NewResource(n.Sim, fmt.Sprintf("cpu%d-handler", globalID)),
		handlerIdle: engine.NewCond(n.Sim),
		Stats:       &stats.Proc{},
	}
	p.WB = memsys.NewWriteBuffer(n.Sim, fmt.Sprintf("cpu%d-wb", globalID), n.Prm.WBEntries, n.Prm.WBRetireAt, p)
	return p
}

// Bind attaches the application thread and stats sink to the processor.
func (p *Processor) Bind(t *engine.Thread, st *stats.Proc) {
	p.Thread = t
	if st != nil {
		p.Stats = st
	}
}

// RetireOps implements memsys.Retirer for the write buffer's drain: a line
// is written into L2 (write-allocate; a miss fetches the line over the bus
// first).
func (p *Processor) RetireOps(dst []engine.Op, line uint64) []engine.Op {
	if p.L2.Lookup(line) {
		return append(dst, engine.Op{Cycles: p.Node.Prm.L2HitCycles})
	}
	return p.fillOps(dst, line, memsys.PrioWB)
}

// Retired implements memsys.Retirer: the written line is dirty in L2.
func (p *Processor) Retired(line uint64) { p.L2.SetDirty(line) }

// fillOps allocates line in L2 and appends the bus transactions that fill
// it at prio: the write-back of a dirty victim, then the line read.
func (p *Processor) fillOps(dst []engine.Op, line uint64, prio int) []engine.Op {
	if _, valid, dirty := p.L2.Insert(line); valid && dirty {
		dst = p.Node.Bus.WriteLineOps(dst, prio, p.Node.Prm.LineBytes)
	}
	return p.Node.Bus.ReadLineOps(dst, prio, p.Node.Prm.LineBytes)
}

// Charge accounts n cycles of kind to the processor without interacting with
// the event engine; the cycles are folded into simulated time at the next
// Sync (or when the lag quantum is exceeded).
func (p *Processor) Charge(t *engine.Thread, n engine.Time, kind stats.TimeKind) {
	if tax := p.Node.Prm.PollTaxPerMille; tax > 0 {
		n += n * engine.Time(tax) / 1000
	}
	p.Book(kind, n)
	p.lag += n
	if p.lag >= p.Node.Prm.SyncQuantumCycles {
		p.Sync(t)
	}
}

// Book adds n cycles of kind to the processor's time breakdown without
// delaying it: the cycles have already passed (a wait that just ended) or
// the caller delays for them itself. Every write to the breakdown goes
// through it.
func (p *Processor) Book(kind stats.TimeKind, n engine.Time) {
	p.Stats.Time[kind] += uint64(n)
}

// Sync folds accumulated fast-path cycles into simulated time, absorbing any
// interrupt-handler time stolen from this CPU meanwhile. Every blocking
// operation must Sync first.
func (p *Processor) Sync(t *engine.Thread) {
	n := p.lag
	p.lag = 0
	for {
		if n > 0 {
			t.Delay(n)
		}
		extra := p.intrSteal - p.intrSeen
		p.intrSeen = p.intrSteal
		if extra == 0 {
			return
		}
		p.Book(stats.HandlerSteal, extra)
		n = extra
	}
}

// BlockedWake must be called after the application thread wakes from a
// protocol block (condition wait). It waits out any handler still occupying
// this CPU and absorbs handler time accrued while blocked (which did not
// delay the application).
func (p *Processor) BlockedWake(t *engine.Thread) {
	for p.handlerActive > 0 {
		p.Where.Drains++
		start := p.Node.Sim.Now()
		p.handlerIdle.Wait(t)
		p.Book(stats.HandlerSteal, p.Node.Sim.Now()-start)
	}
	p.intrSeen = p.intrSteal
}

// HandlerActive reports how many interrupt handlers are running or queued
// on this CPU (diagnostics).
func (p *Processor) HandlerActive() int { return p.handlerActive }

// HandlerEnter / HandlerExit bracket interrupt-handler execution on this CPU
// (used by the interrupts package). The cycles between them are charged as
// stolen from the application.
func (p *Processor) HandlerEnter() { p.handlerActive++ }

// HandlerExit records d stolen cycles and wakes blocked application threads
// if no handler remains active.
func (p *Processor) HandlerExit(d engine.Time) {
	p.intrSteal += d
	p.handlerActive--
	if p.handlerActive == 0 {
		p.handlerIdle.Broadcast()
	}
}

// Access simulates the timing of one aligned memory access of size bytes
// (size <= line size). Data movement is done separately by the caller
// against the node memory image. Fast paths (cache and write-buffer hits)
// avoid the event engine entirely.
func (p *Processor) Access(t *engine.Thread, addr uint64, write bool) {
	prm := &p.Node.Prm
	line := p.L1.LineAddr(addr)
	// Issue cycle.
	p.Charge(t, 1, stats.Compute)

	if write {
		p.accessWrite(t, line)
		return
	}
	if p.WB.Contains(line) {
		p.Stats.WBHits++
		return // satisfied in the write buffer within the issue cycle
	}
	if p.L1.Lookup(line) {
		p.Stats.L1Hits++
		return
	}
	if p.L2.Lookup(line) {
		p.Stats.L2Hits++
		p.Charge(t, prm.L2HitCycles, stats.LocalStall)
		p.L1.Insert(line)
		return
	}
	// Miss: full bus transaction.
	p.Stats.Misses++
	p.Sync(t)
	start := p.Node.Sim.Now()
	var ops [4]engine.Op
	t.Do(p.fillOps(ops[:0], line, memsys.PrioL2)...)
	p.L1.Insert(line)
	p.Book(stats.LocalStall, p.Node.Sim.Now()-start)
}

func (p *Processor) accessWrite(t *engine.Thread, line uint64) {
	// Write-through L1: update L1 if present (no cost beyond issue), push
	// the line into the write buffer.
	if p.WB.Contains(line) {
		p.Stats.WBHits++
	} else if p.WB.Len() >= p.Node.Prm.WBEntries {
		// Will stall: synchronize with the engine first.
		p.Sync(t)
		start := p.Node.Sim.Now()
		p.Where = Where{Op: "wb-full-stall"}
		p.WB.Put(t, line)
		p.Where = Where{}
		p.Book(stats.LocalStall, p.Node.Sim.Now()-start)
	} else {
		p.WB.Put(t, line)
	}
	// Keep L1 coherent: a write to an uncached line does not allocate in
	// the (write-through, no-write-allocate) L1.
	// Invalidate the line in the other processors of this node
	// (write-invalidate snooping; tag-only, timing-free).
	for _, q := range p.Node.Procs {
		if q == p {
			continue
		}
		q.L1.Invalidate(line)
		q.L2.Invalidate(line)
		q.WB.Drop(line)
	}
}

// ComputeCycles charges n cycles of pure computation.
func (p *Processor) ComputeCycles(t *engine.Thread, n engine.Time) {
	p.Charge(t, n, stats.Compute)
}

// FlushWB drains the write buffer (release points).
func (p *Processor) FlushWB(t *engine.Thread) {
	if p.WB.Len() == 0 {
		return
	}
	p.Sync(t)
	start := p.Node.Sim.Now()
	p.Where = Where{Op: "wb-flush"}
	p.WB.Flush(t)
	p.Where = Where{}
	p.Book(stats.LocalStall, p.Node.Sim.Now()-start)
}
