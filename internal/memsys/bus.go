package memsys

import "svmsim/internal/engine"

// Bus arbitration priorities, in the paper's decreasing order: outgoing
// network path of the NI, second-level cache, write buffer, memory,
// incoming path of the NI. Smaller value = higher priority.
const (
	PrioNIOut = iota
	PrioL2
	PrioWB
	PrioMem
	PrioNIIn
)

// Bus is the split-transaction shared memory bus of one SMP node. Timing is
// expressed in processor cycles; the bus clock runs CyclesPerBusCycle times
// slower than the processor.
type Bus struct {
	Res *engine.Resource

	// WidthBytes is the data width (8 for a 64-bit bus).
	WidthBytes int
	// CyclesPerBusCycle is the processor-to-bus clock ratio (4).
	CyclesPerBusCycle engine.Time
	// ArbBusCycles is the arbitration time in bus cycles (1).
	ArbBusCycles engine.Time
	// AddrBusCycles is the request/address phase in bus cycles (1).
	AddrBusCycles engine.Time
	// DRAMCycles is the DRAM access latency in processor cycles, off the
	// bus (split transaction; memory is fully pipelined).
	DRAMCycles engine.Time
}

// NewBus creates a bus with the baseline geometry.
func NewBus(s *engine.Sim, name string, widthBytes int, ratio, arb, addr, dram engine.Time) *Bus {
	return &Bus{
		Res:               engine.NewResource(s, name),
		WidthBytes:        widthBytes,
		CyclesPerBusCycle: ratio,
		ArbBusCycles:      arb,
		AddrBusCycles:     addr,
		DRAMCycles:        dram,
	}
}

// TransferCycles returns the processor cycles needed to move n bytes across
// the bus data wires.
func (b *Bus) TransferCycles(n int) engine.Time {
	if n <= 0 {
		return 0
	}
	words := (n + b.WidthBytes - 1) / b.WidthBytes
	return engine.Time(words) * b.CyclesPerBusCycle
}

// reqCycles is the processor cycles for the arbitration + address phase.
func (b *Bus) reqCycles() engine.Time {
	return (b.ArbBusCycles + b.AddrBusCycles) * b.CyclesPerBusCycle
}

// ReadLine performs a split-transaction line read: request phase on the bus,
// DRAM access off the bus, data return phase on the bus. It blocks the
// calling thread for the whole latency and returns the cycles spent.
func (b *Bus) ReadLine(t *engine.Thread, prio int, lineBytes int) engine.Time {
	start := t.Sim().Now()
	var ops [3]engine.Op
	t.Do(b.ReadLineOps(ops[:0], prio, lineBytes)...)
	return t.Sim().Now() - start
}

// ReadLineOps appends ReadLine's three phases to dst.
func (b *Bus) ReadLineOps(dst []engine.Op, prio int, lineBytes int) []engine.Op {
	return append(dst,
		engine.Op{Res: b.Res, Prio: prio, Cycles: b.reqCycles()},
		engine.Op{Cycles: b.DRAMCycles},
		engine.Op{Res: b.Res, Prio: prio, Cycles: b.TransferCycles(lineBytes)})
}

// WriteLine performs a posted line write: one bus tenure covering
// arbitration, address and data (memory is pipelined, no wait for DRAM).
func (b *Bus) WriteLine(t *engine.Thread, prio int, lineBytes int) engine.Time {
	start := t.Sim().Now()
	var ops [1]engine.Op
	t.Do(b.WriteLineOps(ops[:0], prio, lineBytes)...)
	return t.Sim().Now() - start
}

// WriteLineOps appends WriteLine's one phase to dst.
func (b *Bus) WriteLineOps(dst []engine.Op, prio int, lineBytes int) []engine.Op {
	return append(dst, engine.Op{Res: b.Res, Prio: prio, Cycles: b.reqCycles() + b.TransferCycles(lineBytes)})
}

// DMA moves n bytes in burst chunks of chunkBytes per bus tenure, as the NI
// does when depositing into or reading from host memory. It returns the
// total cycles the caller was blocked.
func (b *Bus) DMA(t *engine.Thread, prio int, n, chunkBytes int) engine.Time {
	start := t.Sim().Now()
	var ops [2]engine.Op
	t.Do(b.DMAOps(ops[:0], prio, n, chunkBytes)...)
	return t.Sim().Now() - start
}

// DMAOps appends DMA's phases to dst: one tenure per whole chunk, as one
// repeated phase, then one for the remainder.
func (b *Bus) DMAOps(dst []engine.Op, prio int, n, chunkBytes int) []engine.Op {
	if n <= 0 {
		return dst
	}
	if chunkBytes <= 0 {
		chunkBytes = 256
	}
	if chunks := n / chunkBytes; chunks > 0 {
		dst = append(dst, engine.Op{Res: b.Res, Prio: prio, Cycles: b.reqCycles() + b.TransferCycles(chunkBytes), Times: chunks})
	}
	if rest := n % chunkBytes; rest > 0 {
		dst = append(dst, engine.Op{Res: b.Res, Prio: prio, Cycles: b.reqCycles() + b.TransferCycles(rest)})
	}
	return dst
}
