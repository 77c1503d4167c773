// Package sim exercises wallclock: host-clock reads, global math/rand use and
// a walltime import inside internal/ simulation code must be flagged.
package sim

import (
	"math/rand"
	"time"

	"svmsim/internal/lint/testdata/src/walltime"
)

// stamp reads the host clock.
func stamp() int64 {
	return time.Now().UnixNano()
}

// pause blocks on the host timer.
func pause() {
	time.Sleep(time.Millisecond)
}

// jitter draws from the process-global, non-reproducibly seeded source.
func jitter() int {
	return rand.Intn(10)
}

// budget derives a cycle budget from host time: the package does not depend
// on the root svmsim package, so it is simulation code and may not import
// walltime at all.
func budget(sw *walltime.Stopwatch) uint64 {
	return uint64(sw.Seconds() * 1e9)
}
