// Package walltime is the only place harness code is allowed to read the
// host's wall clock. Simulation code under internal/ measures time exclusively
// in simulated processor cycles (engine.Time); a wall-clock read leaking into
// a simulation package would make runs timing-dependent and break the
// bit-determinism contract that the experiment tables rely on. The svmlint
// wallclock analyzer enforces this boundary twice: it forbids time.Now,
// time.Since and friends in every internal/ package except this one, so any
// legitimate harness-side measurement (progress reporting, elapsed-time
// footers, the fleet's heartbeat monitor) must go through walltime; and it forbids importing
// walltime from any package the root svmsim package depends on, so the
// simulator cannot reach the host clock even through this package.
package walltime

import "time"

// Stopwatch measures elapsed host wall time for harness diagnostics (never
// for simulated behavior).
type Stopwatch struct {
	start time.Time
}

// Start begins a measurement.
func Start() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the wall time since Start.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}

// Seconds returns the wall time since Start in seconds.
func (s Stopwatch) Seconds() float64 {
	return s.Elapsed().Seconds()
}

// Timer is a host-clock deadline for harness supervision (the fleet's
// heartbeat monitor, a client's retry backoff): it fires once after the
// configured wall-time duration. Like
// Stopwatch it must never feed simulated behavior — a Timer bounds how long
// the harness waits for a simulation, not what the simulation computes.
type Timer struct {
	t *time.Timer
}

// NewTimer starts a timer that fires on C after d.
func NewTimer(d time.Duration) *Timer {
	return &Timer{t: time.NewTimer(d)}
}

// C is the firing channel; it receives exactly once unless Stop wins.
func (t *Timer) C() <-chan time.Time {
	return t.t.C
}

// Stop cancels the timer; it reports whether the stop preempted the firing.
func (t *Timer) Stop() bool {
	return t.t.Stop()
}

// Sleep pauses the calling goroutine for d of host wall time (harness
// backoff pacing, e.g. between supervised job attempts).
func Sleep(d time.Duration) {
	time.Sleep(d)
}
