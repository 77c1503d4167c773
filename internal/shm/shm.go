// Package shm is the shared-memory programming interface the simulated
// applications are written against: typed accessors over the shared virtual
// address space, locks, barriers, explicit compute-cycle charging, and a
// deterministic per-processor PRNG. Every access drives the SVM protocol and
// the node memory hierarchy underneath.
package shm

import (
	"math"

	"svmsim/internal/engine"
	"svmsim/internal/node"
	"svmsim/internal/proto"
)

// Addr is a shared virtual address.
type Addr = uint64

// World wraps one simulated cluster for application setup (allocation, lock
// creation) before the processors start.
type World struct {
	Sys *proto.System
}

// Alloc reserves size bytes (8-byte aligned).
func (w *World) Alloc(size uint64) Addr { return w.Sys.Alloc(size, 8) }

// AllocAlign reserves size bytes at the given alignment.
func (w *World) AllocAlign(size, align uint64) Addr { return w.Sys.Alloc(size, align) }

// AllocPages reserves size bytes page-aligned (so SetHome can distribute it).
func (w *World) AllocPages(size uint64) Addr { return w.Sys.AllocPages(size) }

// SetHome homes [addr, addr+size) at node nodeID explicitly.
func (w *World) SetHome(addr Addr, size uint64, nodeID int) { w.Sys.SetHome(addr, size, nodeID) }

// NewLock creates a cluster-wide lock, returning its ID.
func (w *World) NewLock() int { return w.Sys.NewLock() }

// NewLocks creates n locks and returns their IDs (contiguous).
func (w *World) NewLocks(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = w.Sys.NewLock()
	}
	return ids
}

// PageBytes returns the coherence granularity.
func (w *World) PageBytes() int { return w.Sys.Prm.PageBytes }

// Nodes returns the node count.
func (w *World) Nodes() int { return len(w.Sys.Nodes) }

// Procs returns the total processor count.
func (w *World) Procs() int { return len(w.Sys.Procs) }

// Proc is the per-processor execution context handed to application code.
type Proc struct {
	W  *World
	P  *node.Processor
	T  *engine.Thread
	ID int // global processor ID
	N  int // total processors

	rng uint64
}

// NewProc builds the application context running on processor p with
// application rank appID of appN (the application-visible machine may be
// smaller than the physical one, e.g. under a dedicated protocol processor).
func NewProc(w *World, p *node.Processor, appID, appN int, t *engine.Thread) *Proc {
	return &Proc{W: w, P: p, T: t, ID: appID, N: appN, rng: uint64(appID)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

// ReadU64 reads the shared 8-byte word at a.
func (c *Proc) ReadU64(a Addr) uint64 { return c.W.Sys.ReadWord(c.T, c.P, a) }

// WriteU64 writes the shared 8-byte word at a.
func (c *Proc) WriteU64(a Addr, v uint64) { c.W.Sys.WriteWord(c.T, c.P, a, v) }

// ReadI64 reads a signed word.
func (c *Proc) ReadI64(a Addr) int64 { return int64(c.ReadU64(a)) }

// WriteI64 writes a signed word.
func (c *Proc) WriteI64(a Addr, v int64) { c.WriteU64(a, uint64(v)) }

// ReadF64 reads a float64 word.
func (c *Proc) ReadF64(a Addr) float64 { return math.Float64frombits(c.ReadU64(a)) }

// WriteF64 writes a float64 word.
func (c *Proc) WriteF64(a Addr, v float64) { c.WriteU64(a, math.Float64bits(v)) }

// Compute charges n cycles of local computation.
func (c *Proc) Compute(n uint64) { c.P.ComputeCycles(c.T, engine.Time(n)) }

// Lock acquires cluster lock id.
func (c *Proc) Lock(id int) { c.W.Sys.Acquire(c.T, c.P, id) }

// Unlock releases cluster lock id.
func (c *Proc) Unlock(id int) { c.W.Sys.Release(c.T, c.P, id) }

// Barrier joins the global barrier.
func (c *Proc) Barrier() { c.W.Sys.Barrier(c.T, c.P) }

// Rand returns the next value of the processor's deterministic xorshift64*
// stream.
func (c *Proc) Rand() uint64 {
	x := c.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rng = x
	return x * 0x2545f4914f6cdd1d
}

// RandN returns a deterministic value in [0, n).
func (c *Proc) RandN(n int) int {
	if n <= 0 {
		return 0
	}
	return int(c.Rand() % uint64(n))
}

// RandFloat returns a deterministic value in [0, 1).
func (c *Proc) RandFloat() float64 {
	return float64(c.Rand()>>11) / float64(1<<53)
}

// Block returns the [lo, hi) range of n items assigned to this processor
// under a contiguous block distribution.
func (c *Proc) Block(n int) (lo, hi int) {
	return BlockOf(n, c.ID, c.N)
}

// BlockOf returns the contiguous block of n items owned by proc id of total.
func BlockOf(n, id, total int) (lo, hi int) {
	per := n / total
	rem := n % total
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
