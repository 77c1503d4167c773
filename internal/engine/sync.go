package engine

import "fmt"

// Cond is a condition variable for simulated threads. Waiters are resumed in
// FIFO order, at the simulated time of the Signal/Broadcast.
type Cond struct {
	sim     *Sim
	waiters []*Thread
}

// NewCond returns a condition variable bound to s.
func NewCond(s *Sim) *Cond { return &Cond{sim: s} }

// Wait parks t until another actor signals the condition. As with real
// condition variables, callers should re-check their predicate on wakeup.
func (c *Cond) Wait(t *Thread) {
	c.waiters = append(c.waiters, t)
	t.park()
}

// Signal wakes the oldest waiter, if any. The waiter list keeps its
// capacity, so a steady Wait/Signal rhythm allocates nothing.
func (c *Cond) Signal() {
	n := len(c.waiters)
	if n == 0 {
		return
	}
	t := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters[n-1] = nil
	c.waiters = c.waiters[:n-1]
	t.Unpark()
}

// Broadcast wakes every waiter. Unpark only schedules, so no waiter joins
// the list while it is walked.
func (c *Cond) Broadcast() {
	for i, t := range c.waiters {
		t.Unpark()
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

type resWaiter struct {
	prio int
	seq  uint64
	t    *Thread
}

// Resource models a unit-capacity shared hardware resource (a bus, an I/O
// bus, a network-interface engine) with priority arbitration: among queued
// requesters, the numerically smallest priority wins; ties go to the earliest
// arrival. It also tracks total busy time for utilization reporting.
type Resource struct {
	sim      *Sim
	name     string
	busy     bool
	seq      uint64
	queue    []resWaiter
	busyFrom Time
	// BusyCycles accumulates total cycles the resource was held.
	BusyCycles Time
}

// NewResource creates a free resource named name.
func NewResource(s *Sim, name string) *Resource {
	return &Resource{sim: s, name: name}
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// Acquire blocks t until it holds the resource. prio orders contending
// waiters (smaller wins).
func (r *Resource) Acquire(t *Thread, prio int) {
	if !r.take(t, prio) {
		t.park()
		// The releaser marked us as the holder before unparking.
	}
}

// take makes t the holder if the resource is free and reports whether it
// did; otherwise it queues t at prio for Release to hand the resource over.
func (r *Resource) take(t *Thread, prio int) bool {
	if !r.busy {
		r.busy = true
		r.busyFrom = r.sim.Now()
		return true
	}
	r.seq++
	r.queue = append(r.queue, resWaiter{prio: prio, seq: r.seq, t: t})
	return false
}

// Release frees the resource, handing it to the best-priority waiter if any.
// The resource remains busy when handed over directly.
func (r *Resource) Release() {
	if !r.busy {
		panic(fmt.Sprintf("engine: Release of free resource %q", r.name))
	}
	r.BusyCycles += r.sim.Now() - r.busyFrom
	if len(r.queue) == 0 {
		r.busy = false
		return
	}
	best := 0
	for i := 1; i < len(r.queue); i++ {
		w, b := r.queue[i], r.queue[best]
		if w.prio < b.prio || (w.prio == b.prio && w.seq < b.seq) {
			best = i
		}
	}
	next := r.queue[best]
	r.queue = append(r.queue[:best], r.queue[best+1:]...)
	r.busyFrom = r.sim.Now()
	next.t.Unpark()
}
