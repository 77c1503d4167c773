// Package appkit holds shared scaffolding for the simulated SPLASH-2-style
// applications: typed views over shared arrays, reductions, and the
// distributed task queues with stealing used by raytrace and volrend.
package appkit

import (
	"svmsim/internal/shm"
)

// Vec is a view over a shared array of 8-byte words.
type Vec struct{ Base shm.Addr }

// At returns the address of element i.
func (v Vec) At(i int) shm.Addr { return v.Base + shm.Addr(i)*8 }

// GetF reads element i as float64.
func (v Vec) GetF(c *shm.Proc, i int) float64 { return c.ReadF64(v.At(i)) }

// SetF writes element i as float64.
func (v Vec) SetF(c *shm.Proc, i int, x float64) { c.WriteF64(v.At(i), x) }

// GetU reads element i as uint64.
func (v Vec) GetU(c *shm.Proc, i int) uint64 { return c.ReadU64(v.At(i)) }

// SetU writes element i as uint64.
func (v Vec) SetU(c *shm.Proc, i int, x uint64) { c.WriteU64(v.At(i), x) }

// GetI reads element i as int64.
func (v Vec) GetI(c *shm.Proc, i int) int64 { return c.ReadI64(v.At(i)) }

// SetI writes element i as int64.
func (v Vec) SetI(c *shm.Proc, i int, x int64) { c.WriteI64(v.At(i), x) }

// AllocVecPages reserves n words page-aligned (so it can be distributed).
func AllocVecPages(w *shm.World, n int) Vec { return Vec{Base: w.AllocPages(uint64(n) * 8)} }

// Reduction is a lock-protected shared accumulator cell plus a generation
// word, usable across phases without reallocation.
type Reduction struct {
	lock int
	cell Vec // [0]=sum, [1]=count
}

// NewReduction allocates a reduction cell.
func NewReduction(w *shm.World) *Reduction {
	return &Reduction{lock: w.NewLock(), cell: AllocVecPages(w, 2)}
}

// AddF64 accumulates x into the cell under the lock.
func (r *Reduction) AddF64(c *shm.Proc, x float64) {
	c.Lock(r.lock)
	r.cell.SetF(c, 0, r.cell.GetF(c, 0)+x)
	r.cell.SetU(c, 1, r.cell.GetU(c, 1)+1)
	c.Unlock(r.lock)
}

// Read returns the current sum (typically after a barrier).
func (r *Reduction) Read(c *shm.Proc) float64 { return r.cell.GetF(c, 0) }

// Reset clears the cell (call from one processor between phases, with
// barriers around it).
func (r *Reduction) Reset(c *shm.Proc) {
	r.cell.SetF(c, 0, 0)
	r.cell.SetU(c, 1, 0)
}

// TaskQueues is a set of per-processor work queues in shared memory with
// lock-protected stealing, in the style the paper's raytrace/volrend use.
// Each queue q holds int64 task IDs in a fixed ring: layout per queue is
// [head, tail, items...].
type TaskQueues struct {
	nq    int
	cap   int
	locks []int
	qs    []Vec
}

// NewTaskQueues allocates nq queues of the given capacity, each on its own
// pages (so queue state doesn't false-share across owners).
func NewTaskQueues(w *shm.World, nq, capacity int) *TaskQueues {
	t := &TaskQueues{nq: nq, cap: capacity, locks: w.NewLocks(nq)}
	for i := 0; i < nq; i++ {
		t.qs = append(t.qs, AllocVecPages(w, capacity+2))
	}
	return t
}

// Push appends a task to queue q (caller should hold no other queue lock).
func (t *TaskQueues) Push(c *shm.Proc, q int, task int64) bool {
	c.Lock(t.locks[q])
	defer c.Unlock(t.locks[q])
	head := int(t.qs[q].GetI(c, 0))
	tail := int(t.qs[q].GetI(c, 1))
	if tail-head >= t.cap {
		return false
	}
	t.qs[q].SetI(c, 2+tail%t.cap, task)
	t.qs[q].SetI(c, 1, int64(tail+1))
	return true
}

// pop removes up to max tasks from queue q, assuming the lock is held.
func (t *TaskQueues) pop(c *shm.Proc, q, max int) []int64 {
	head := int(t.qs[q].GetI(c, 0))
	tail := int(t.qs[q].GetI(c, 1))
	n := tail - head
	if n <= 0 {
		return nil
	}
	if n > max {
		n = max
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = t.qs[q].GetI(c, 2+(head+i)%t.cap)
	}
	t.qs[q].SetI(c, 0, int64(head+n))
	return out
}

// Take removes one task from the caller's own queue q; when empty it steals
// half of the fullest sibling's queue. It returns (task, true) or (0, false)
// when all queues are drained.
func (t *TaskQueues) Take(c *shm.Proc, q int) (int64, bool) {
	c.Lock(t.locks[q])
	got := t.pop(c, q, 1)
	c.Unlock(t.locks[q])
	if len(got) == 1 {
		return got[0], true
	}
	// Steal: probe siblings round-robin from q+1.
	for off := 1; off < t.nq; off++ {
		v := (q + off) % t.nq
		c.Lock(t.locks[v])
		h := int(t.qs[v].GetI(c, 0))
		tl := int(t.qs[v].GetI(c, 1))
		n := tl - h
		var stolen []int64
		if n > 0 {
			take := (n + 1) / 2
			stolen = t.pop(c, v, take)
		}
		c.Unlock(t.locks[v])
		if len(stolen) > 0 {
			// Keep the first, push the rest to our own queue.
			c.Lock(t.locks[q])
			for _, s := range stolen[1:] {
				head := int(t.qs[q].GetI(c, 0))
				tail := int(t.qs[q].GetI(c, 1))
				if tail-head < t.cap {
					t.qs[q].SetI(c, 2+tail%t.cap, s)
					t.qs[q].SetI(c, 1, int64(tail+1))
				}
			}
			c.Unlock(t.locks[q])
			return stolen[0], true
		}
	}
	return 0, false
}

// BlockHome distributes [base, base+words*8) across nodes by contiguous
// processor blocks: proc i's block of n items is homed at i's node. Call
// before first touch.
func BlockHome(w *shm.World, v Vec, n int) {
	procs := w.Procs()
	ppn := procs / w.Nodes()
	for id := 0; id < procs; id++ {
		lo, hi := shm.BlockOf(n, id, procs)
		if hi > lo {
			w.SetHome(v.At(lo), uint64(hi-lo)*8, id/ppn)
		}
	}
}
