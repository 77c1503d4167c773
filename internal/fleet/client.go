package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"svmsim/internal/walltime"
)

// Client is the fleet's shared HTTP client: every hop that crosses a
// process boundary — worker→coordinator registration and heartbeats,
// coordinator→worker dispatch, cmd/sweep -remote — goes through Do. It
// exists because the daemon's admission control speaks 429 + Retry-After,
// and a client that ignores the header turns polite pushback into a retry
// storm: Do honors Retry-After, falls back to capped exponential backoff,
// and adds jitter so a fleet of clients released by the same 429 does not
// stampede back in lockstep. Transport-level errors (connection refused,
// reset) retry on the same schedule. Every retried verb here is safe to
// repeat: submissions are idempotent by content key. SubmitAndWait, the
// job protocol on top of Do, is the one client of a daemon's jobs: the
// coordinator's dispatch and cmd/sweep -remote both run through it.
//
// The zero value is usable; all fields are optional.
type Client struct {
	// MaxAttempts bounds total tries per request (default 4). Transport
	// errors and 429s retry up to the budget; any other response returns
	// to the caller as-is, first try.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (default 100ms), doubling
	// per attempt. A 429's Retry-After header overrides the computed
	// delay for that attempt.
	BaseBackoff time.Duration
	// MaxBackoff caps any single delay, Retry-After included (default 5s).
	MaxBackoff time.Duration

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
}

// Do issues one HTTP request with the retry policy above, returning the
// final status and response body. A non-nil error means the request never
// produced a response within the attempt budget (or ctx ended).
func (c *Client) Do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		if len(body) > 0 {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil, ctx.Err()
			}
			lastErr = err
			if !c.sleep(ctx, c.delay(attempt, "")) {
				return 0, nil, ctx.Err()
			}
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			lastErr = rerr
			if !c.sleep(ctx, c.delay(attempt, "")) {
				return 0, nil, ctx.Err()
			}
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < attempts-1 {
			if !c.sleep(ctx, c.delay(attempt, resp.Header.Get("Retry-After"))) {
				return 0, nil, ctx.Err()
			}
			continue
		}
		return resp.StatusCode, data, nil
	}
	return 0, nil, fmt.Errorf("fleet: %s %s failed after %d attempts: %w", method, url, attempts, lastErr)
}

// SubmitAndWait runs one job through the job protocol of the svmsimd daemon
// (or fleet coordinator) at base: it POSTs spec to base+path ("/v1/cells"
// or "/v1/sweeps"), reads the job ID from the descriptor, then long-polls
// the job's result until it is terminal. It returns that answer's status
// and body: 200 with the result document, or an error envelope. A 409 or
// 503 poll answer means the job is still running, and it polls again.
//
// A non-nil error is either a transport error from Do or a *refusedError:
// the daemon answered the submission with something other than a job
// descriptor.
func (c *Client) SubmitAndWait(ctx context.Context, base, path string, spec []byte) (int, []byte, error) {
	status, data, err := c.Do(ctx, http.MethodPost, base+path, spec)
	if err != nil {
		return 0, nil, err
	}
	var view struct {
		ID string `json:"id"`
	}
	if (status != http.StatusOK && status != http.StatusAccepted) || json.Unmarshal(data, &view) != nil || view.ID == "" {
		return 0, nil, &refusedError{status: status, body: firstLine(data)}
	}
	for {
		status, data, err = c.Do(ctx, http.MethodGet, base+"/v1/jobs/"+view.ID+"/result?wait=1", nil)
		if err != nil {
			return 0, nil, err
		}
		if status != http.StatusConflict && status != http.StatusServiceUnavailable {
			return status, data, nil
		}
	}
}

// refusedError reports a submission the daemon answered without accepting
// a job: a status other than 200 or 202 (a 400 for version skew, a 503
// while draining), or a body that is not a job descriptor. It is an answer
// from a reachable daemon, not a transport failure.
type refusedError struct {
	status int
	body   string // first line of the answer
}

func (e *refusedError) Error() string {
	if e.status == http.StatusOK || e.status == http.StatusAccepted {
		return fmt.Sprintf("unparseable submit response %q", e.body)
	}
	return fmt.Sprintf("daemon refused the submission: %d %s", e.status, e.body)
}

// delay picks the wait before the next attempt: the server's Retry-After
// when it sent one, else exponential backoff from BaseBackoff; capped at
// MaxBackoff, plus up to 25% jitter.
func (c *Client) delay(attempt int, retryAfter string) time.Duration {
	base := c.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := c.MaxBackoff
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	d := base << attempt
	if retryAfter != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d > maxd {
		d = maxd
	}
	return d + time.Duration(c.jitter(int64(d/4)+1))
}

// jitter draws from an explicitly seeded source (the global math/rand
// functions are off-limits under internal/ — see the svmlint wallclock
// analyzer). The seed only decorrelates processes; within one process the
// shared stream already decorrelates concurrent callers.
func (c *Client) jitter(n int64) int64 {
	if n <= 1 {
		return 0
	}
	c.once.Do(func() {
		c.rng = rand.New(rand.NewSource(int64(os.Getpid())<<16 + 1))
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Int63n(n)
}

// sleep waits out one retry delay, abandoning the wait if ctx ends.
func (c *Client) sleep(ctx context.Context, d time.Duration) bool {
	t := walltime.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-ctx.Done():
		return false
	}
}
