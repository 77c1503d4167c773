package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

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
	if deduped := s.metrics.deduped.Value(); deduped != 3 {
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
