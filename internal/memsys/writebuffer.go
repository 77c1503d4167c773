package memsys

import "svmsim/internal/engine"

// WriteBuffer models the per-processor write buffer sitting between the
// write-through L1 and the L2/memory bus: a small FIFO of cache-line-wide
// entries with a retire-at-N policy. Retiring proceeds in the background (the
// buffer's drain thread) so it overlaps computation but contends for the
// bus; the processor only stalls when the buffer is full or on an explicit
// flush at synchronization points.
type WriteBuffer struct {
	capacity int
	retireAt int

	lines    []uint64 // FIFO, oldest first; its capacity is the buffer's
	draining bool

	space *engine.Cond // waiters blocked on a full buffer
	empty *engine.Cond // waiters blocked on Flush

	// drain runs the drain program, one burst per Start, until the buffer
	// is empty. retirer writes lines back for it; while retiring is set,
	// the program is running line's phases.
	drain    *engine.Thread
	retirer  Retirer
	line     uint64
	retiring bool

	// Stalls counts how often a writer had to wait for space.
	Stalls uint64
	// Retired counts lines written back.
	Retired uint64
}

// Retirer writes a WriteBuffer's lines back, one drained line at a time.
type Retirer interface {
	// RetireOps does the bookkeeping due as the drain takes line (an L2
	// lookup or insert) and appends the phases that write it back. The
	// phases carry no Then.
	RetireOps(dst []engine.Op, line uint64) []engine.Op
	// Retired finishes line once its phases have run.
	Retired(line uint64)
}

// NewWriteBuffer creates a write buffer with the given capacity and
// retire-at threshold. retirer writes back each drained line.
func NewWriteBuffer(s *engine.Sim, name string, capacity, retireAt int, retirer Retirer) *WriteBuffer {
	if capacity <= 0 || retireAt <= 0 || retireAt > capacity {
		panic("memsys: invalid write buffer geometry")
	}
	return &WriteBuffer{
		capacity: capacity,
		retireAt: retireAt,
		lines:    make([]uint64, 0, capacity),
		space:    engine.NewCond(s),
		empty:    engine.NewCond(s),
		drain:    s.NewThread(name + "-drain"),
		retirer:  retirer,
	}
}

// Len returns the current number of buffered lines.
func (w *WriteBuffer) Len() int { return len(w.lines) }

// Contains reports whether line is currently buffered (a write-buffer hit
// for reads and writes).
func (w *WriteBuffer) Contains(line uint64) bool {
	for _, l := range w.lines {
		if l == line {
			return true
		}
	}
	return false
}

// Put enqueues a line write, merging it into an existing entry when
// possible and otherwise allocating one, and reports whether it merged. A
// write that needs an entry of a full buffer must wait for space with
// PutOps; Put panics on it.
func (w *WriteBuffer) Put(line uint64) (merged bool) {
	if w.Contains(line) {
		return true
	}
	if len(w.lines) >= w.capacity {
		panic("memsys: Put into a full write buffer")
	}
	w.lines = append(w.lines, line)
	if len(w.lines) >= w.retireAt {
		w.startDrain()
	}
	return false
}

// PutOps appends the phases of a line write that waits while the buffer is
// full. When the write fits, it puts line at once and appends nothing.
// Otherwise it counts a stall, starts the drain and appends a wait for
// space that continues with retry, whose Continue must call PutOps for line
// again.
func (w *WriteBuffer) PutOps(dst []engine.Op, line uint64, retry engine.Continuation) []engine.Op {
	if len(w.lines) < w.capacity || w.Contains(line) {
		w.Put(line)
		return dst
	}
	w.Stalls++
	w.startDrain()
	return append(dst, engine.Op{Wait: w.space, Then: retry})
}

// Flush blocks until the buffer is empty, forcing a drain. Used at release
// points so all writes are visible before synchronization proceeds.
func (w *WriteBuffer) Flush(t *engine.Thread) {
	for len(w.lines) > 0 {
		w.startDrain()
		w.empty.Wait(t)
	}
}

// Drop discards a buffered line without writing it back (used when the
// protocol invalidates a page whose lines are still buffered; the data is
// already captured in the node memory image).
func (w *WriteBuffer) Drop(line uint64) bool {
	for i, l := range w.lines {
		if l == line {
			w.lines = append(w.lines[:i], w.lines[i+1:]...)
			if len(w.lines) == 0 {
				w.empty.Broadcast()
			}
			w.space.Signal()
			return true
		}
	}
	return false
}

// DropRange discards every buffered line in [lo, hi) in one pass, with the
// wakeups that one Drop per line would issue: a space signal per dropped
// line, and an empty broadcast just before the last signal if the buffer
// empties.
func (w *WriteBuffer) DropRange(lo, hi uint64) {
	kept := w.lines[:0]
	for _, l := range w.lines {
		if l < lo || l >= hi {
			kept = append(kept, l)
		}
	}
	dropped := len(w.lines) - len(kept)
	w.lines = kept
	if dropped == 0 {
		return
	}
	for i := 1; i < dropped; i++ {
		w.space.Signal()
	}
	if len(kept) == 0 {
		w.empty.Broadcast()
	}
	w.space.Signal()
}

// startDrain starts the drain thread unless it is running: one program
// retires every line, in FIFO order, until the buffer is empty.
func (w *WriteBuffer) startDrain() {
	if w.draining {
		return
	}
	w.draining = true
	w.drain.Start(w, nil)
}

// Continue implements engine.Continuation for the drain's program. It
// finishes the line whose phases just ran (Retired, the count, a space
// signal), then takes the next buffered line and appends its phases, with
// the buffer as the last phase's continuation. Once the buffer is empty it
// ends the drain, wakes the flushers and appends nothing, which ends the
// program.
func (w *WriteBuffer) Continue(dst []engine.Op) []engine.Op {
	for {
		if w.retiring {
			w.retirer.Retired(w.line)
			w.Retired++
			w.space.Signal()
		}
		if w.retiring = len(w.lines) > 0; !w.retiring {
			w.draining = false
			w.empty.Broadcast()
			return dst
		}
		w.line = w.lines[0]
		w.lines = w.lines[:copy(w.lines, w.lines[1:])]
		n := len(dst)
		if dst = w.retirer.RetireOps(dst, w.line); len(dst) > n {
			dst[len(dst)-1].Then = w
			return dst
		}
	}
}
