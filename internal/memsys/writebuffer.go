package memsys

import "svmsim/internal/engine"

// WriteBuffer models the per-processor write buffer sitting between the
// write-through L1 and the L2/memory bus: a small FIFO of cache-line-wide
// entries with a retire-at-N policy. Retiring proceeds in the background (a
// short-lived drain thread) so it overlaps computation but contends for the
// bus; the processor only stalls when the buffer is full or on an explicit
// flush at synchronization points.
type WriteBuffer struct {
	sim       *engine.Sim
	drainName string // the drain thread's name, built once
	capacity  int
	retireAt  int

	lines    []uint64
	draining bool

	space *engine.Cond // waiters blocked on a full buffer
	empty *engine.Cond // waiters blocked on Flush

	// retire writes one line back (L2 insert and any bus work), running on
	// the drain thread.
	retire func(t *engine.Thread, line uint64)

	// Stalls counts how often a writer had to wait for space.
	Stalls uint64
	// Retired counts lines written back.
	Retired uint64
}

// NewWriteBuffer creates a write buffer with the given capacity and
// retire-at threshold. retire is invoked once per drained line.
func NewWriteBuffer(s *engine.Sim, name string, capacity, retireAt int, retire func(t *engine.Thread, line uint64)) *WriteBuffer {
	if capacity <= 0 || retireAt <= 0 || retireAt > capacity {
		panic("memsys: invalid write buffer geometry")
	}
	return &WriteBuffer{
		sim:       s,
		drainName: name + "-drain",
		capacity:  capacity,
		retireAt:  retireAt,
		space:     engine.NewCond(s),
		empty:     engine.NewCond(s),
		retire:    retire,
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

// Put enqueues a line write. It merges into an existing entry when possible,
// otherwise allocates one, stalling the caller while the buffer is full.
// It reports whether the write merged into an existing entry.
func (w *WriteBuffer) Put(t *engine.Thread, line uint64) (merged bool) {
	if w.Contains(line) {
		return true
	}
	for len(w.lines) >= w.capacity {
		w.Stalls++
		w.startDrain()
		w.space.Wait(t)
	}
	w.lines = append(w.lines, line)
	if len(w.lines) >= w.retireAt {
		w.startDrain()
	}
	return false
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

func (w *WriteBuffer) startDrain() {
	if w.draining {
		return
	}
	w.draining = true
	w.sim.Spawn(w.drainName, func(t *engine.Thread) {
		for len(w.lines) > 0 {
			line := w.lines[0]
			w.lines = w.lines[1:]
			w.retire(t, line)
			w.Retired++
			w.space.Signal()
		}
		w.draining = false
		w.empty.Broadcast()
	})
}
