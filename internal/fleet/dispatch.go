package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
// attempt (see try).
func (c *Coordinator) remote(cell exp.Cell) (exp.CellResult, bool) {
	spec, ok := exp.SpecFromCell(cell)
	if !ok {
		return exp.CellResult{}, false
	}
	// After a crash restart, hold replayed dispatches until the fleet has
	// had a beat to re-register (see Config.SettleDelay); closed
	// immediately when nothing was replayed.
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
		res, err := c.dispatch(w, key, spec)
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

// tryOutcome is one placement attempt's report back to the dispatch
// orchestrator.
type tryOutcome struct {
	res exp.CellResult
	err error
}

// dispatch places one cell on primary, hedging a straggler onto a second
// worker after the hedge delay. First success wins; the loser is not
// cancelled — its result still marks warmth when it lands (counted in
// fleet_late_results_total), and content-keyed idempotency makes the
// duplicate harmless. An error return means every launched attempt failed.
func (c *Coordinator) dispatch(primary *worker, key string, spec exp.CellSpec) (exp.CellResult, error) {
	agg := make(chan tryOutcome, 2)
	var resolved atomic.Bool
	launch := func(w *worker) {
		c.reg.acquire(w)
		c.metrics.dispatched.Inc(w.id)
		go c.try(w, key, spec, agg, &resolved)
	}
	launch(primary)
	outstanding := 1

	var hedgeC <-chan time.Time
	if d := c.hedgeDelay(); d > 0 {
		t := walltime.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C()
	}
	var lastErr error
	for outstanding > 0 {
		select {
		case out := <-agg:
			outstanding--
			if out.err == nil {
				return out.res, nil
			}
			lastErr = out.err
		case <-hedgeC:
			hedgeC = nil // at most one hedge per dispatch
			if w := c.reg.pick(key, map[string]bool{primary.id: true}); w != nil {
				c.metrics.hedges.Inc()
				c.logf("fleet: hedging straggler %s onto %s", key, w.id)
				launch(w)
				outstanding++
			}
		}
	}
	return exp.CellResult{}, lastErr
}

// latencyRing holds the last 256 successful dispatch latencies, in
// seconds, for the hedging policy's p99. It is policy state, not a metric:
// the scrape's view is fleet_dispatch_latency_seconds.
type latencyRing struct {
	mu      sync.Mutex
	samples [256]float64
	next    int
	full    bool
}

func (r *latencyRing) add(seconds float64) {
	r.mu.Lock()
	r.samples[r.next] = seconds
	r.next++
	if r.next == len(r.samples) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// p99 estimates the 99th-percentile dispatch latency from the ring; zero
// means "no samples yet" (the hedging policy reads that as "don't hedge").
func (r *latencyRing) p99() float64 {
	r.mu.Lock()
	n := r.next
	if r.full {
		n = len(r.samples)
	}
	samples := make([]float64, n)
	copy(samples, r.samples[:n])
	r.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[n*99/100]
}

// hedgeDelay derives the straggler threshold from observed latency:
// hedgeFactor × p99, floored at hedgeMin. No samples yet (or hedging
// disabled) means no hedge — guessing a threshold before seeing any
// latency would hedge every cell of a cold fleet.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.hedgeFactor <= 0 {
		return 0
	}
	p99 := c.ring.p99()
	if p99 <= 0 {
		return 0
	}
	d := time.Duration(c.hedgeFactor * p99 * float64(time.Second))
	if d < c.hedgeMin {
		d = c.hedgeMin
	}
	return d
}

// try runs one placement attempt to completion and reports on agg. The
// first successful attempt for the cell flips resolved; any later success
// is a deduplicated late result — warmth is still recorded (the bytes are
// on that worker's disk, future routing should know), the result is
// otherwise dropped. An answer carrying a retryable kind (the worker's own
// watchdog timeout, a panic, an unclassified harness error) is a failed
// attempt: the cell may still succeed elsewhere, and caching a
// non-deterministic verdict would poison the memo.
func (c *Coordinator) try(w *worker, key string, spec exp.CellSpec, agg chan<- tryOutcome, resolved *atomic.Bool) {
	defer c.reg.release(w)
	sw := walltime.Start()
	res, err := c.callWorker(w, key, spec)
	if err == nil && exp.RetryableKind(res.ErrKind) {
		err = fmt.Errorf("worker %s returned retryable %s: %s", w.id, res.ErrKind, res.Err)
	}
	if err != nil {
		c.metrics.dispatchErrs.Inc(w.id)
		agg <- tryOutcome{err: err}
		return
	}
	c.reg.markWarm(w.cacheID, key)
	seconds := sw.Seconds()
	c.metrics.completed.Inc(w.id)
	c.metrics.latency.Observe(seconds)
	c.ring.add(seconds)
	if !resolved.CompareAndSwap(false, true) {
		c.metrics.late.Inc()
	}
	agg <- tryOutcome{res: res}
}

// callWorker runs the worker-side protocol for one cell: submit the spec,
// then long-poll the job result. The call aborts the moment the worker's
// down channel closes (failure detector, broken connection elsewhere, or a
// re-registration), surfacing a typed *exp.WorkerLostError so the
// orchestrator re-dispatches instead of waiting out an HTTP timeout against
// a dead peer. A connection-level failure additionally condemns the worker:
// refusing connections is stronger evidence than a missed heartbeat.
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
	lost := func() (exp.CellResult, error) {
		return exp.CellResult{}, &exp.WorkerLostError{Worker: w.id, Key: key}
	}

	body, err := json.Marshal(spec)
	if err != nil {
		return exp.CellResult{}, err
	}
	status, data, err := c.client.Do(ctx, http.MethodPost, w.url+"/v1/cells", body)
	if err != nil {
		if isDown(w) {
			return lost()
		}
		c.reg.condemn(w)
		return exp.CellResult{}, fmt.Errorf("submitting to %s: %w", w.id, err)
	}
	switch status {
	case http.StatusOK, http.StatusAccepted:
	default:
		// 400s here mean version skew between coordinator and worker; 503
		// means the worker is draining. Either way this worker cannot take
		// the cell — report a dispatch failure so placement moves on.
		return exp.CellResult{}, fmt.Errorf("worker %s refused cell: %d %s", w.id, status, firstLine(data))
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &view); err != nil || view.ID == "" {
		return exp.CellResult{}, fmt.Errorf("worker %s: unparseable submit response %q", w.id, firstLine(data))
	}

	for {
		status, data, err = c.client.Do(ctx, http.MethodGet, w.url+"/v1/jobs/"+view.ID+"/result?wait=1", nil)
		if err != nil {
			if isDown(w) {
				return lost()
			}
			c.reg.condemn(w)
			return exp.CellResult{}, fmt.Errorf("polling %s: %w", w.id, err)
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
		case http.StatusConflict, http.StatusServiceUnavailable:
			// Still running: the long poll's server-side window expired
			// (503 "timeout") or wait was ignored (409). Poll again.
			continue
		case http.StatusInternalServerError:
			// A finished-but-failed cell: the worker's structured error
			// envelope becomes the cell's wire result, preserving the kind
			// so RetryableKind can disposition it upstream.
			kind, msg, ok := server.ParseError(data)
			if !ok {
				return exp.CellResult{}, fmt.Errorf("worker %s: unparseable error envelope %q", w.id, firstLine(data))
			}
			return exp.CellResult{Schema: exp.SchemaVersion, Key: key, ErrKind: kind, Err: msg}, nil
		default:
			return exp.CellResult{}, fmt.Errorf("worker %s: unexpected result status %d %s", w.id, status, firstLine(data))
		}
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
