// Package walltime is a miniature stand-in for svmsim/internal/walltime used
// by the wallclock fixtures: the one sanctioned wall-clock wrapper, which no
// package of the simulator may import.
package walltime

// Stopwatch measures host time.
type Stopwatch struct{}

// Start begins a measurement.
func Start() *Stopwatch { return &Stopwatch{} }

// Seconds returns the elapsed host seconds.
func (s *Stopwatch) Seconds() float64 { return 0 }
