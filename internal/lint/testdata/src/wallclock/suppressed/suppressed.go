// Package sim pins the wallclock suppression path: a reasoned ignore moves
// the walltime import finding to the suppressed list.
package sim

import (
	//svmlint:ignore wallclock fixture progress meter; its reading is printed, never simulated
	"svmsim/internal/lint/testdata/src/walltime"
)

// progress reports host seconds for a status line.
func progress(sw *walltime.Stopwatch) float64 {
	return sw.Seconds()
}
