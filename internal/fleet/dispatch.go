package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"svmsim/internal/exp"
	"svmsim/internal/server"
	"svmsim/internal/walltime"
)

// remote is the exp.Suite.Remote hook: the coordinator's whole dispatch
// policy for one cell. The suite calls it inside the cell's singleflight,
// after every cache layer missed, so by construction at most one placement
// of a given cell is in progress at a time and the result lands in the
// coordinator's memo/disk layers like any locally simulated cell — which is
// what makes sweep assembly byte-identical to a single daemon's.
//
// Returning ok=false degrades the cell to local simulation (no workers, a
// non-wire-expressible cell, or an exhausted redispatch budget with
// fallback enabled). Deterministic simulation failures from a worker
// (stall, lost_page, ...) are results, not dispatch failures: they return
// ok=true and cache like any error row. A retryable answer is a failed
// attempt (see try). Attempts run one after another, so a cell is on one
// worker at a time: a failed or lost attempt has ended before the cell is
// placed again.
func (c *Coordinator) remote(cell exp.Cell) (exp.CellResult, bool) {
	spec, ok := exp.SpecFromCell(cell)
	if !ok {
		return exp.CellResult{}, false
	}
	// After a crash restart, hold replayed dispatches for one suspect
	// timeout so the fleet can re-register (see New); closed immediately
	// when nothing was replayed.
	<-c.settled
	key := cell.Key()
	var lastErr error
	exclude := make(map[string]bool)
	dispatched := 0
	for dispatched < c.maxDispatches {
		w := c.reg.pick(key, exclude)
		if w == nil && len(exclude) > 0 {
			// Every alive worker already failed this cell once; forgive and
			// retry the full set rather than give up while workers live.
			exclude = make(map[string]bool)
			w = c.reg.pick(key, nil)
		}
		if w == nil {
			if !c.reg.waitForWorker(c.workerWait, c.stopc) {
				lastErr = fmt.Errorf("no alive workers within %v", c.workerWait)
				break
			}
			continue
		}
		if dispatched > 0 {
			c.metrics.redispatched.Inc()
			c.logf("fleet: redispatching %s (attempt %d, last error: %v)", key, dispatched+1, lastErr)
		}
		dispatched++
		res, err := c.try(w, key, spec)
		if err != nil {
			lastErr = err
			exclude[w.id] = true
			continue
		}
		return res, true
	}
	if !c.disableFallback {
		c.metrics.fallbacks.Inc()
		c.logf("fleet: falling back to local simulation for %s: %v", key, lastErr)
		return exp.CellResult{}, false
	}
	err := &exp.RedispatchExhaustedError{Key: key, Attempts: dispatched, Last: fmt.Sprint(lastErr)}
	return exp.NewCellResult(key, nil, err), true
}

// try runs one placement attempt on w. An answer carrying a retryable kind
// (the worker's own watchdog timeout, a panic, an unclassified harness
// error) is a failed attempt: the cell may still succeed elsewhere, and
// caching a non-deterministic verdict would poison the memo. A success
// marks w's cache identity warm for the cell: the bytes are on its disk,
// and future routing should know.
func (c *Coordinator) try(w *worker, key string, spec exp.CellSpec) (exp.CellResult, error) {
	c.reg.acquire(w)
	defer c.reg.release(w)
	c.metrics.dispatched.Inc(w.id)
	sw := walltime.Start()
	res, err := c.callWorker(w, key, spec)
	if err == nil && exp.RetryableKind(res.ErrKind) {
		err = fmt.Errorf("worker %s returned retryable %s: %s", w.id, res.ErrKind, res.Err)
	}
	if err != nil {
		c.metrics.dispatchErrs.Inc(w.id)
		return exp.CellResult{}, err
	}
	c.reg.markWarm(w.cacheID, key)
	c.metrics.completed.Inc(w.id)
	c.metrics.latency.Observe(sw.Seconds())
	return res, nil
}

// callWorker runs one cell through the worker's job protocol
// (Client.SubmitAndWait). The call aborts the moment the worker's down
// channel closes (failure detector, broken connection elsewhere, or a
// re-registration), so remote places the cell again instead of waiting out
// an HTTP timeout against a dead peer. A connection-level failure
// additionally condemns the worker: refusing connections is stronger
// evidence than a missed heartbeat. A refused submission does not: a 400
// means version skew between coordinator and worker, a 503 a draining
// worker, and either way placement moves on.
func (c *Coordinator) callWorker(w *worker, key string, spec exp.CellSpec) (exp.CellResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-w.down:
			cancel()
		case <-ctx.Done():
		}
	}()

	body, err := json.Marshal(spec)
	if err != nil {
		return exp.CellResult{}, err
	}
	status, data, err := c.client.SubmitAndWait(ctx, w.url, "/v1/cells", body)
	var refused *refusedError
	switch {
	case errors.As(err, &refused):
		return exp.CellResult{}, fmt.Errorf("worker %s: %w", w.id, err)
	case err != nil:
		if isDown(w) {
			return exp.CellResult{}, fmt.Errorf("worker %s lost with cell in flight (key %s)", w.id, key)
		}
		c.reg.condemn(w)
		return exp.CellResult{}, fmt.Errorf("calling %s: %w", w.id, err)
	}
	switch status {
	case http.StatusOK:
		res, err := exp.DecodeCellResult(data)
		if err != nil {
			return exp.CellResult{}, fmt.Errorf("worker %s: %w", w.id, err)
		}
		if res.Key != key {
			return exp.CellResult{}, fmt.Errorf("worker %s answered key %s for %s (suite skew)", w.id, res.Key, key)
		}
		return res, nil
	case http.StatusInternalServerError:
		// A finished-but-failed cell: the worker's structured error
		// envelope becomes the cell's wire result, preserving the kind so
		// RetryableKind can disposition it upstream.
		kind, msg, ok := server.ParseError(data)
		if !ok {
			return exp.CellResult{}, fmt.Errorf("worker %s: unparseable error envelope %q", w.id, firstLine(data))
		}
		return exp.CellResult{Schema: exp.SchemaVersion, Key: key, ErrKind: kind, Err: msg}, nil
	default:
		return exp.CellResult{}, fmt.Errorf("worker %s: unexpected result status %d %s", w.id, status, firstLine(data))
	}
}

// isDown reports whether the worker has been retired (down closed).
func isDown(w *worker) bool {
	select {
	case <-w.down:
		return true
	default:
		return false
	}
}

// firstLine trims a response body to its first line for error messages.
func firstLine(data []byte) string {
	s := string(data)
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}
