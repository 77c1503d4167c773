// Package node models one SMP node of the simulated cluster: a set of
// processors with private L1/L2 caches and write buffers, a shared
// split-transaction memory bus, an I/O bus, and the node's image of the
// shared virtual address space. Data always lives in the node memory image;
// caches and write buffers are timing models only, which keeps application
// data correctness orthogonal to timing fidelity. The image covers only the
// allocated part of the shared address space: it starts empty, and the
// protocol layer grows it in whole pages as the application allocates.
//
// Besides the image, a node records which of its processors may hold each
// line of it (the holder record), so a write's snoop and a DMA invalidation
// probe only those processors. A processor's stalls (a read miss, a write
// into a full write buffer, and Sync itself) each run as one Thread.Do
// program that starts with the processor's unsynced lag, so a stall parks
// the processor once.
package node

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

	// holders is the holder record: stride bytes per line of Mem, the
	// line's bit for processor i at bit i%8 of its byte i/8. Invariant: a
	// processor that holds a line in its L1, L2 or write buffer has the
	// line's bit set. A bit is set wherever its line enters one of the
	// three and cleared only where the line leaves all three (a write's
	// snoop, InvalidateRange); an eviction leaves it set, so a set bit may
	// be stale and costs one empty probe. Skipping a clear bit is exact:
	// invalidating or dropping a line a processor does not hold changes
	// nothing and signals nothing.
	holders   []byte
	stride    int
	lineShift uint
}

// New builds a node with nprocs processors and an empty memory image.
func New(s *engine.Sim, id, nprocs int, prm Params, firstGlobalID int) *Node {
	n := &Node{
		ID:        id,
		Sim:       s,
		Prm:       prm,
		Bus:       memsys.NewBus(s, fmt.Sprintf("node%d-bus", id), prm.BusWidthBytes, prm.BusRatio, prm.BusArbCycles, prm.BusAddrCycles, prm.DRAMCycles),
		IOBus:     engine.NewResource(s, fmt.Sprintf("node%d-iobus", id)),
		stride:    (nprocs + 7) / 8,
		lineShift: uint(bits.TrailingZeros(uint(prm.LineBytes))),
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
// thread can yield. The holder record grows with the image, and the same
// holds for it.
func (n *Node) Grow(size uint64) {
	if have := uint64(len(n.Mem)); size > have {
		n.Mem = append(n.Mem, make([]byte, size-have)...)
		lines := (len(n.Mem) + n.Prm.LineBytes - 1) >> n.lineShift
		n.holders = append(n.holders, make([]byte, lines*n.stride-len(n.holders))...)
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
// invalidations, modeling DMA coherence). It probes only the processors the
// holder record names for some line of the range, in processor order, and
// then clears the range's record. An empty range invalidates nothing.
func (n *Node) InvalidateRange(addr uint64, size int) {
	if size <= 0 {
		return
	}
	start := addr &^ (uint64(n.Prm.LineBytes) - 1)
	end := addr + uint64(size)
	rows := n.holders[n.holderRow(start) : n.holderRow(end-1)+n.stride]
	for j := 0; j < n.stride; j++ {
		var held byte
		for i := j; i < len(rows); i += n.stride {
			held |= rows[i]
		}
		for ; held != 0; held &= held - 1 {
			p := n.Procs[j<<3|bits.TrailingZeros8(held)]
			p.L1.InvalidateRange(addr, size)
			p.L2.InvalidateRange(addr, size)
			p.WB.DropRange(start, end)
		}
	}
	clear(rows)
}

// holderRow returns the index of line's row in the holder record.
func (n *Node) holderRow(line uint64) int { return int(line>>n.lineShift) * n.stride }

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

	// hbyte and hbit locate the processor's bit in a holder-record row.
	hbyte int
	hbit  byte

	// The stall program running (see Continue): its kind, its line and the
	// cycle the stall itself began, once synced.
	stall      stallKind
	stallLine  uint64
	stallStart engine.Time
}

// stallKind is what a stall program does once the processor has synced.
type stallKind uint8

const (
	syncOnly stallKind = iota // Sync: nothing more
	readMiss                  // fill the missed line into L2 over the bus
	wbFull                    // set the breadcrumb, then put the line into the full write buffer
	wbWait                    // put the line, after a wait for write-buffer space
)

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
		hbyte:       localID >> 3,
		hbit:        1 << (localID & 7),
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
	_, valid, dirty := p.L2.Insert(line)
	p.hold(line)
	if valid && dirty {
		dst = p.Node.Bus.WriteLineOps(dst, prio, p.Node.Prm.LineBytes)
	}
	return p.Node.Bus.ReadLineOps(dst, prio, p.Node.Prm.LineBytes)
}

// hold sets the processor's holder-record bit for line, which has just
// entered its L1, L2 or write buffer.
func (p *Processor) hold(line uint64) {
	n := p.Node
	n.holders[n.holderRow(line)+p.hbyte] |= p.hbit
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
// interrupt-handler time stolen from this CPU meanwhile: a wait of the lag,
// then one more wait for the handler time stolen during the last, until a
// wait ends with none stolen. It runs as a stall program with nothing
// after, so it parks the processor at most once. Every blocking operation
// must Sync first; a read miss and a write into a full write buffer sync in
// their own stall programs.
func (p *Processor) Sync(t *engine.Thread) {
	p.runStall(t, syncOnly, 0)
}

// runStall runs a stall of kind on line as one program on the processor's
// thread t: a wait of the processor's lag, continued by Continue, which
// absorbs stolen handler time and appends the stall itself. With no lag it
// starts from Continue, since a zero-cycle wait would add an event.
func (p *Processor) runStall(t *engine.Thread, kind stallKind, line uint64) {
	p.stall, p.stallLine = kind, line
	var ops [4]engine.Op
	dst := ops[:0]
	if n := p.lag; n > 0 {
		p.lag = 0
		dst = append(dst, engine.Op{Cycles: n, Then: p})
	} else {
		dst = p.Continue(dst)
	}
	t.Do(dst...)
}

// Continue implements engine.Continuation for the processor's stall
// programs. Every wait the program makes continues here. While the program
// syncs, handler time stolen from this CPU since it last looked is absorbed
// as one more wait; once a wait ends with none stolen, the stall begins: a
// read miss appends its line fill, and a write into a full write buffer
// sets its breadcrumb and appends its put, whose waits for space continue
// here too.
func (p *Processor) Continue(dst []engine.Op) []engine.Op {
	if p.stall == wbWait {
		return p.WB.PutOps(dst, p.stallLine, p)
	}
	if extra := p.intrSteal - p.intrSeen; extra > 0 {
		p.intrSeen = p.intrSteal
		p.Book(stats.HandlerSteal, extra)
		return append(dst, engine.Op{Cycles: extra, Then: p})
	}
	p.stallStart = p.Node.Sim.Now()
	switch p.stall {
	case readMiss:
		return p.fillOps(dst, p.stallLine, memsys.PrioL2)
	case wbFull:
		p.Where = Where{Op: "wb-full-stall"}
		p.stall = wbWait
		return p.WB.PutOps(dst, p.stallLine, p)
	}
	return dst
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
// (size <= line size) at addr, which must lie in the node memory image (the
// protocol grows the image as the application allocates). Data movement is
// done separately by the caller against the image. Fast paths (cache and
// write-buffer hits) avoid the event engine entirely; a read miss and a
// write into a full write buffer each run as one stall program, with the
// processor's unsynced lag as its first wait, and park the processor once.
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
		p.hold(line)
		return
	}
	// Miss: full bus transaction.
	p.Stats.Misses++
	p.runStall(t, readMiss, line)
	p.L1.Insert(line)
	p.hold(line)
	p.Book(stats.LocalStall, p.Node.Sim.Now()-p.stallStart)
}

func (p *Processor) accessWrite(t *engine.Thread, line uint64) {
	// Write-through L1: update L1 if present (no cost beyond issue), push
	// the line into the write buffer.
	if p.WB.Contains(line) {
		p.Stats.WBHits++
	} else if p.WB.Len() >= p.Node.Prm.WBEntries {
		p.runStall(t, wbFull, line)
		p.Where = Where{}
		p.Book(stats.LocalStall, p.Node.Sim.Now()-p.stallStart)
	} else {
		p.WB.Put(line)
	}
	// Keep L1 coherent: a write to an uncached line does not allocate in
	// the (write-through, no-write-allocate) L1.
	// Invalidate the line in the other processors of this node
	// (write-invalidate snooping; tag-only, timing-free), probing only those
	// the holder record names, in processor order. The line is now in this
	// processor's write buffer, so its row becomes this processor's bit.
	n := p.Node
	i := n.holderRow(line)
	row := n.holders[i : i+n.stride]
	for j, held := range row {
		if j == p.hbyte {
			held &^= p.hbit
		}
		for ; held != 0; held &= held - 1 {
			q := n.Procs[j<<3|bits.TrailingZeros8(held)]
			q.L1.Invalidate(line)
			q.L2.Invalidate(line)
			q.WB.Drop(line)
		}
		row[j] = 0
	}
	row[p.hbyte] = p.hbit
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
