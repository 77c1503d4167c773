package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svmsim"
	"svmsim/internal/exp"
)

// counters snapshots the supervision counters for assertions.
func counters(s *Server) (quarantined, deduped uint64) {
	m := &s.metrics
	return m.quarantined.Value(), m.deduped.Value()
}

// TestWatchdogQuarantine: a job that runs past its deadline is quarantined
// — terminal, addressable, serving a structured job_timeout error — and the
// worker is free for the next job.
func TestWatchdogQuarantine(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1, JobDeadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate) // release the abandoned attempt's goroutine at cleanup
	rec := submitCell(s, gateWorkload("poison", gate))
	v := waitTerminal(t, s, jobID(t, rec))
	if v.Status != statusQuarantined || v.ErrKind != "job_timeout" {
		t.Fatalf("poison job: %+v", v)
	}

	res := httptest.NewRecorder()
	s.Handler().ServeHTTP(res, httptest.NewRequest("GET", "/v1/jobs/"+v.ID+"/result", nil))
	if res.Code != 500 {
		t.Fatalf("quarantined result: %d %s", res.Code, res.Body)
	}
	var body errorBody
	if err := json.Unmarshal(res.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Kind != "job_timeout" || !strings.HasPrefix(body.Error.Message, "job exceeded the 20ms deadline (key poison|") {
		t.Fatalf("error envelope: %+v", body)
	}

	if quarantined, _ := counters(s); quarantined != 1 {
		t.Fatalf("counters: quarantined=%d", quarantined)
	}
	// The worker is free again: a fresh job runs to completion immediately.
	rec2 := submitCell(s, tinyWorkload("after"))
	if v2 := waitTerminal(t, s, jobID(t, rec2)); v2.Status != statusDone {
		t.Fatalf("worker not released after quarantine: %+v", v2)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogTimeoutRerunsNothing: a job that runs past its deadline is
// quarantined without simulating its cell again. The abandoned simulation
// keeps running, lands in the suite's memo, and a resubmission of the same
// key is served from it: the app's Setup ran once and the suite saw one
// simulation of the key.
func TestWatchdogTimeoutRerunsNothing(t *testing.T) {
	suite := testSuite()
	var (
		mu     sync.Mutex
		events []exp.CellEvent
	)
	landed := make(chan struct{})
	var once sync.Once
	suite.Observe = func(ev exp.CellEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
		if ev.Source == exp.SourceSim {
			once.Do(func() { close(landed) })
		}
	}
	var setups atomic.Int32
	gate := make(chan struct{})
	mk := func() svmsim.App {
		return svmsim.App{
			Name:  "held",
			Setup: func(w *svmsim.World) any { setups.Add(1); <-gate; return nil },
			Body:  func(c *svmsim.Proc, state any) { c.Compute(100); c.Barrier() },
		}
	}
	w := svmsim.Workload{Name: "held", Small: mk, Default: mk}
	s, err := New(Config{Suite: suite, Workers: 1, JobDeadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec := submitCell(s, w)
	if v := waitTerminal(t, s, jobID(t, rec)); v.Status != statusQuarantined || v.ErrKind != "job_timeout" {
		t.Fatalf("held job: %+v", v)
	}
	close(gate)
	select {
	case <-landed:
	case <-time.After(30 * time.Second):
		t.Fatal("the abandoned simulation never landed")
	}

	again := submitCell(s, w)
	if v := waitTerminal(t, s, jobID(t, again)); v.Status != statusDone {
		t.Fatalf("resubmission: %+v", v)
	}
	if n := setups.Load(); n != 1 {
		t.Errorf("Setup ran %d times, want 1", n)
	}
	key := exp.Cell{Cfg: suite.Base(), W: w}.Key()
	mu.Lock()
	sims := 0
	for _, ev := range events {
		if ev.Key == key && ev.Source == exp.SourceSim {
			sims++
		}
	}
	mu.Unlock()
	if sims != 1 {
		t.Errorf("suite saw %d simulations of %s, want 1 (events %v)", sims, key, events)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIdempotentResubmission: while a job is queued or running, submitting
// the same content key again returns the *same* job descriptor (200) and
// schedules nothing new.
func TestIdempotentResubmission(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	w := gateWorkload("gate", gate)
	first := submitCell(s, w)
	if first.Code != 202 {
		t.Fatalf("first submit: %d", first.Code)
	}
	id := jobID(t, first)
	for i := 0; i < 3; i++ {
		again := submitCell(s, w)
		if again.Code != 200 {
			t.Fatalf("resubmission %d: %d %s", i, again.Code, again.Body)
		}
		if got := jobID(t, again); got != id {
			t.Fatalf("resubmission %d forked a new job: %s vs %s", i, got, id)
		}
	}
	if _, deduped := counters(s); deduped != 3 {
		t.Fatalf("deduped = %d, want 3", deduped)
	}
	s.mu.Lock()
	nJobs := len(s.jobs)
	s.mu.Unlock()
	if nJobs != 1 {
		t.Fatalf("dedup created jobs: %d in index", nJobs)
	}
	close(gate)
	if v := waitTerminal(t, s, id); v.Status != statusDone {
		t.Fatalf("deduped job: %+v", v)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHealthzReadyzSplit: /healthz is pure liveness (200 even while
// draining); /readyz tracks whether the daemon accepts work — 200 when
// serving, 503 during replay and from the moment drain starts.
func TestHealthzReadyzSplit(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		res := httptest.NewRecorder()
		s.Handler().ServeHTTP(res, httptest.NewRequest("GET", path, nil))
		return res.Code, res.Body.String()
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, `"ready"`) {
		t.Fatalf("readyz: %d %s", code, body)
	}

	// Startup replay window: not ready, but alive.
	s.mu.Lock()
	s.ready = false
	s.mu.Unlock()
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, `"replaying"`) {
		t.Fatalf("readyz during replay: %d %s", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz during replay: %d", code)
	}
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, `"draining"`) {
		t.Fatalf("readyz during drain: %d %s", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz during drain: %d", code)
	}
}

// TestSustainedOverflow: under sustained pressure against a one-slot queue,
// every rejection is a clean 429 with the advertised Retry-After, the
// rejection counter matches exactly, and no previously accepted job is
// affected — acceptance is a promise that overload cannot revoke.
func TestSustainedOverflow(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1, QueueDepth: 1, RetryAfterSeconds: 3})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	held := submitCell(s, gateWorkload("gate", gate))
	waitInflight(t, s, 1)
	queued := submitCell(s, tinyWorkload("queued"))
	if held.Code != 202 || queued.Code != 202 {
		t.Fatalf("setup: %d, %d", held.Code, queued.Code)
	}

	const pressure = 25
	for i := 0; i < pressure; i++ {
		rec := submitCell(s, tinyWorkload(fmt.Sprintf("over-%d", i)))
		if rec.Code != 429 {
			t.Fatalf("overflow %d: %d %s", i, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("Retry-After"); got != "3" {
			t.Fatalf("overflow %d: Retry-After = %q, want 3", i, got)
		}
		if !strings.Contains(rec.Body.String(), `"queue_full"`) {
			t.Fatalf("overflow %d: body %s", i, rec.Body)
		}
	}

	res := httptest.NewRecorder()
	s.Handler().ServeHTTP(res, httptest.NewRequest("GET", "/metrics", nil))
	if want := fmt.Sprintf("svmsimd_jobs_rejected_total %d", pressure); !strings.Contains(res.Body.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, res.Body.String())
	}

	close(gate)
	for _, rec := range []*httptest.ResponseRecorder{held, queued} {
		if v := waitTerminal(t, s, jobID(t, rec)); v.Status != statusDone {
			t.Fatalf("accepted job revoked by overload: %+v", v)
		}
	}
	// Pressure gone: a previously rejected cell is accepted on retry.
	if rec := submitCell(s, tinyWorkload("over-0")); rec.Code != 202 && rec.Code != 200 {
		t.Fatalf("post-pressure retry: %d %s", rec.Code, rec.Body)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
