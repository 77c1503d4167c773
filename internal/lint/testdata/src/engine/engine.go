// Package engine is a miniature stand-in for svmsim/internal/engine used by
// the analyzer fixtures. It mirrors the real API shapes the fixtures call, so
// they type-check without importing the real simulator.
package engine

// Time mirrors the real engine's cycle-count alias.
type Time = uint64

// Sim is a fake simulator.
type Sim struct{}

// Spawn starts a fake thread.
func (s *Sim) Spawn(name string, fn func(t *Thread)) *Thread { return &Thread{} }

// Run drains the event queue until quiescence (a blocking entry point).
func (s *Sim) Run() error { return nil }

// Thread is a fake cooperative thread.
type Thread struct{}

// Park suspends the thread until another thread unparks it.
func (t *Thread) Park() {}

// Op is one phase of a fake hardware transaction.
type Op struct{ Cycles Time }

// Do runs a transaction's phases, parking at most once.
func (t *Thread) Do(ops ...Op) {}

// Cond is a fake condition variable.
type Cond struct{}

// Wait parks t until the condition is signaled.
func (c *Cond) Wait(t *Thread) {}
