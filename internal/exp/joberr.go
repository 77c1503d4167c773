package exp

import (
	"fmt"
	"time"
)

// JobTimeoutError reports a serving-layer job that ran past the daemon's
// wall-clock deadline (svmsimd's worker watchdog). It is a harness failure,
// not a simulation outcome: the simulated run itself has no notion of wall
// time, so the error carries the job's content key and the deadline rather
// than any simulated state. It lives in exp because its row in the error
// taxonomy (codec.go) must name it, and internal/server (which raises it)
// sits above exp in the import graph.
type JobTimeoutError struct {
	// Key is the content address of the timed-out work.
	Key string
	// Deadline is the wall-clock budget that was exceeded.
	Deadline time.Duration
}

func (e *JobTimeoutError) Error() string {
	return fmt.Sprintf("job exceeded the %v deadline (key %s)", e.Deadline, e.Key)
}

// WorkerLostError reports a fleet dispatch aborted because the worker
// executing it was declared dead — it missed its suspect timeout, refused
// connections, or left the fleet — while the cell was in flight. Like
// JobTimeoutError it is a harness failure, not a simulation outcome: the
// identical cell runs fine on any other worker, so the coordinator
// re-dispatches rather than surfacing it. It lives in exp for the same
// reason: the taxonomy names it, and internal/fleet sits above exp.
type WorkerLostError struct {
	// Worker is the coordinator-assigned ID of the lost worker.
	Worker string
	// Key is the content address of the in-flight work.
	Key string
}

func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("worker %s lost with cell in flight (key %s)", e.Worker, e.Key)
}

// RedispatchExhaustedError reports a cell the fleet failed to place: every
// dispatch attempt ended in a host-level failure (dead workers, timeouts,
// unreachable endpoints) and the redispatch budget ran out with local
// fallback disabled. The cell itself was never judged, so this is
// non-deterministic by construction — a retry against a healthier fleet may
// succeed.
type RedispatchExhaustedError struct {
	// Key is the content address of the unplaceable work.
	Key string
	// Attempts is how many dispatches were tried before giving up.
	Attempts int
	// Last is the text of the final attempt's failure.
	Last string
}

func (e *RedispatchExhaustedError) Error() string {
	return fmt.Sprintf("fleet dispatch exhausted after %d attempts (key %s): %s", e.Attempts, e.Key, e.Last)
}
