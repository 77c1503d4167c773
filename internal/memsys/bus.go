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

// ReadLineOps appends a split-transaction line read to dst: the request
// phase on the bus, the DRAM access off the bus, and the data return phase
// on the bus.
func (b *Bus) ReadLineOps(dst []engine.Op, prio int, lineBytes int) []engine.Op {
	return append(dst,
		engine.Op{Res: b.Res, Prio: prio, Cycles: b.reqCycles()},
		engine.Op{Cycles: b.DRAMCycles},
		engine.Op{Res: b.Res, Prio: prio, Cycles: b.TransferCycles(lineBytes)})
}

// WriteLineOps appends a posted line write to dst: one bus tenure covering
// arbitration, address and data (memory is pipelined, no wait for DRAM).
func (b *Bus) WriteLineOps(dst []engine.Op, prio int, lineBytes int) []engine.Op {
	return append(dst, engine.Op{Res: b.Res, Prio: prio, Cycles: b.reqCycles() + b.TransferCycles(lineBytes)})
}

// DMAOps appends a DMA of n bytes to dst, in burst chunks of chunkBytes per
// bus tenure, as the NI moves data into or out of host memory: one tenure
// per whole chunk, as one repeated phase, then one for the remainder.
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
