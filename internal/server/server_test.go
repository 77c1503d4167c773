package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"svmsim"
	"svmsim/internal/exp"
)

// testSuite builds a small, fast suite (4 procs, 2 per node).
func testSuite() *exp.Suite {
	s := exp.NewSuite(exp.Small)
	s.Procs = 4
	s.PPN = 2
	s.Parallelism = 1
	return s
}

// gateWorkload blocks its cell in Setup until gate closes — the test's lever
// for holding a worker busy deterministically.
func gateWorkload(name string, gate chan struct{}) svmsim.Workload {
	mk := func() svmsim.App {
		return svmsim.App{
			Name:  name,
			Setup: func(w *svmsim.World) any { <-gate; return nil },
			Body:  func(c *svmsim.Proc, state any) { c.Compute(100); c.Barrier() },
		}
	}
	return svmsim.Workload{Name: name, Small: mk, Default: mk}
}

func tinyWorkload(name string) svmsim.Workload {
	mk := func() svmsim.App {
		return svmsim.App{
			Name:  name,
			Setup: func(w *svmsim.World) any { return nil },
			Body:  func(c *svmsim.Proc, state any) { c.Compute(1000); c.Barrier() },
		}
	}
	return svmsim.Workload{Name: name, Small: mk, Default: mk}
}

func panicWorkload(name string) svmsim.Workload {
	mk := func() svmsim.App {
		return svmsim.App{
			Name:  name,
			Setup: func(w *svmsim.World) any { panic("boom: " + name) },
			Body:  func(c *svmsim.Proc, state any) {},
		}
	}
	return svmsim.Workload{Name: name, Small: mk, Default: mk}
}

// submitCell drives the admission path directly with a prepared cell,
// returning the recorded response.
func submitCell(s *Server, w svmsim.Workload) *httptest.ResponseRecorder {
	cell := exp.Cell{Cfg: s.suite.Base(), W: w}
	rec := httptest.NewRecorder()
	s.submit(rec, &job{kind: "cell", key: cell.Key(), cell: cell})
	return rec
}

func jobID(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("parsing job view %q: %v", rec.Body.String(), err)
	}
	return v.ID
}

// waitInflight spins until the worker pool holds want jobs (the queue has
// been drained that far) or the deadline passes.
func waitInflight(t *testing.T, s *Server, want int) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if s.inflightCount() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("worker pool never reached %d in-flight jobs", want)
}

// waitTerminal blocks until a job finishes and returns its final view.
func waitTerminal(t *testing.T, s *Server, id string) jobView {
	t.Helper()
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("job %s lost from the index", id)
	}
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never finished", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return viewLocked(j)
}

// TestAdmissionControl: with one worker held busy and a one-slot queue, a
// third submission is rejected with 429 + Retry-After — and both accepted
// jobs still run to completion (no accepted job is ever lost). A job runs
// to completion on its worker, so the queued job does not start while the
// held one runs.
func TestAdmissionControl(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1, QueueDepth: 1, RetryAfterSeconds: 7})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	rec1 := submitCell(s, gateWorkload("gate", gate))
	if rec1.Code != 202 {
		t.Fatalf("first submit: %d %s", rec1.Code, rec1.Body)
	}
	waitInflight(t, s, 1)

	rec2 := submitCell(s, tinyWorkload("tiny"))
	if rec2.Code != 202 {
		t.Fatalf("queued submit: %d %s", rec2.Code, rec2.Body)
	}
	queued := jobID(t, rec2)
	time.Sleep(50 * time.Millisecond)
	s.mu.Lock()
	status := s.jobs[queued].status
	s.mu.Unlock()
	if status != statusQueued {
		t.Fatalf("second job is %s while the held one runs, want queued", status)
	}
	rec3 := submitCell(s, tinyWorkload("tiny-overflow"))
	if rec3.Code != 429 {
		t.Fatalf("overflow submit: %d %s", rec3.Code, rec3.Body)
	}
	if got := rec3.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7", got)
	}
	if !strings.Contains(rec3.Body.String(), `"queue_full"`) {
		t.Fatalf("429 body lacks structured kind: %s", rec3.Body)
	}

	close(gate)
	for _, rec := range []*httptest.ResponseRecorder{rec1, rec2} {
		if v := waitTerminal(t, s, jobID(t, rec)); v.Status != statusDone {
			t.Fatalf("accepted job ended as %+v", v)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestReplayWidensAdmissionOnlyWhileWaiting: journal replay never 429s and
// its jobs never count against QueueDepth, but they widen the queue only
// while they wait in it. With a one-slot queue, one new cell queues behind
// the waiting replayed jobs and the next is 429; once they have run, one
// new cell queues behind a running one and the next is 429 again.
func TestReplayWidensAdmissionOnlyWhileWaiting(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, wl := range []string{"Water-nsq", "FFT", "LU"} {
		raw, _ := json.Marshal(exp.CellSpec{Workload: wl})
		if err := jn.append(journalRecord{Op: opAccept, ID: "j" + string(rune('1'+i)), Kind: "cell", Key: "stale", Spec: raw}); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()

	hold, hold2 := make(chan struct{}), make(chan struct{})
	suite := testSuite()
	suite.Remote = stubRemote(map[string]chan struct{}{"Water-nsq": hold, "Water-sp": hold2})
	s, err := New(Config{Suite: suite, Workers: 1, QueueDepth: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(wl string, want int) string {
		t.Helper()
		rec := serve(s, "POST", "/v1/cells", `{"workload":"`+wl+`"}`)
		if rec.Code != want {
			t.Fatalf("submitting %s: %d %s, want %d", wl, rec.Code, rec.Body, want)
		}
		if want != 202 {
			return ""
		}
		return jobID(t, rec)
	}

	// j1 runs held; j2 and j3 wait above the bound.
	waitInflight(t, s, 1)
	first := submit("Barnes-reb", 202)
	submit("Volrend", 429)
	close(hold)
	for _, id := range []string{"j1", "j2", "j3", first} {
		waitTerminal(t, s, id)
	}

	held := submit("Water-sp", 202)
	waitInflight(t, s, 1)
	second := submit("Raytrace", 202)
	submit("Volrend", 429)
	close(hold2)
	waitTerminal(t, s, held)
	waitTerminal(t, s, second)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStoreHitBypassesQueue: a result already in the content store is served
// immediately — even while the queue is full — with zero new simulations.
func TestStoreHitBypassesQueue(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	tiny := tinyWorkload("tiny")
	first := submitCell(s, tiny)
	if v := waitTerminal(t, s, jobID(t, first)); v.Status != statusDone {
		t.Fatalf("warming job: %+v", v)
	}
	simsBefore := s.metrics.simulated.Value()

	gate := make(chan struct{})
	submitCell(s, gateWorkload("gate", gate))
	waitInflight(t, s, 1)
	submitCell(s, tinyWorkload("filler")) // occupies the only queue slot

	again := submitCell(s, tiny)
	if again.Code != 200 {
		t.Fatalf("store hit: %d %s", again.Code, again.Body)
	}
	var v jobView
	if err := json.Unmarshal(again.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if !v.Cached || v.Status != statusDone {
		t.Fatalf("store hit not marked cached: %+v", v)
	}
	if got := s.metrics.simulated.Value(); got != simsBefore {
		t.Fatalf("warm resubmission simulated: %d -> %d", simsBefore, got)
	}
	close(gate)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrain: a draining server refuses new work with 503, finishes every
// accepted job (including still-queued ones), and reports a cut-short drain
// when the context expires first.
func TestDrain(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	rec1 := submitCell(s, gateWorkload("gate", gate))
	waitInflight(t, s, 1)
	rec2 := submitCell(s, tinyWorkload("tiny"))
	if rec2.Code != 202 {
		t.Fatalf("queued submit: %d", rec2.Code)
	}

	cut, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(cut); err == nil {
		t.Fatal("expired drain reported success with a job in flight")
	}

	refused := submitCell(s, tinyWorkload("late"))
	if refused.Code != 503 || !strings.Contains(refused.Body.String(), `"draining"`) {
		t.Fatalf("submission during drain: %d %s", refused.Code, refused.Body)
	}

	close(gate)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*httptest.ResponseRecorder{rec1, rec2} {
		if v := waitTerminal(t, s, jobID(t, rec)); v.Status != statusDone {
			t.Fatalf("job dropped by drain: %+v", v)
		}
	}
}

// TestFailedJobStructuredError: a failing cell ends as a failed job whose
// result endpoint serves the structured error envelope.
func TestFailedJobStructuredError(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := submitCell(s, panicWorkload("bomb"))
	v := waitTerminal(t, s, jobID(t, rec))
	if v.Status != statusFailed || v.ErrKind != "failed" {
		t.Fatalf("panic job: %+v", v)
	}

	res := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/jobs/"+v.ID+"/result?wait=1", nil)
	s.Handler().ServeHTTP(res, req)
	if res.Code != 500 {
		t.Fatalf("failed job result: %d %s", res.Code, res.Body)
	}
	var body errorBody
	if err := json.Unmarshal(res.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Kind != "failed" || !strings.Contains(body.Error.Message, "boom: bomb") {
		t.Fatalf("error envelope: %+v", body)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJobEviction: the job index is bounded — old finished jobs are evicted
// while their results stay addressable through the content store.
func TestJobEviction(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1, MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var views []jobView
	for i := 0; i < 3; i++ {
		rec := submitCell(s, tinyWorkload("tiny-"+string(rune('a'+i))))
		views = append(views, waitTerminal(t, s, jobID(t, rec)))
	}
	s.mu.Lock()
	nJobs, nStore := len(s.jobs), len(s.store)
	_, oldest := s.jobs[views[0].ID]
	s.mu.Unlock()
	if nJobs != 2 || oldest {
		t.Fatalf("index not bounded: %d jobs, oldest present=%v", nJobs, oldest)
	}
	if nStore != 3 {
		t.Fatalf("store lost results on eviction: %d", nStore)
	}
	// The evicted job's cell is still a store hit.
	again := submitCell(s, tinyWorkload("tiny-a"))
	if again.Code != 200 {
		t.Fatalf("evicted job's result not served from store: %d", again.Code)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestErrorEnvelope pins the error envelope's wire bytes, which svmsimd's
// request-timeout body reuses, and ParseError's reading of them, which the
// fleet's dispatch relies on.
func TestErrorEnvelope(t *testing.T) {
	const want = `{"error":{"kind":"timeout","message":"request timed out"}}` + "\n"
	if got := ErrorJSON("timeout", "request timed out"); got != want {
		t.Fatalf("ErrorJSON = %q, want %q", got, want)
	}
	rec := httptest.NewRecorder()
	WriteError(rec, 504, "timeout", "request timed out")
	if rec.Code != 504 || rec.Body.String() != want || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("WriteError: %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	if kind, msg, ok := ParseError([]byte(want)); !ok || kind != "timeout" || msg != "request timed out" {
		t.Fatalf("ParseError = %q, %q, %v", kind, msg, ok)
	}
	for _, bad := range []string{"", "not json", "{}", `{"error":{"message":"no kind"}}`} {
		if _, _, ok := ParseError([]byte(bad)); ok {
			t.Errorf("ParseError(%q) accepted a non-envelope", bad)
		}
	}
}

// TestMetricsRendering: the registry renders well-formed Prometheus text with
// the counters the smoke test greps for.
func TestMetricsRendering(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := submitCell(s, tinyWorkload("tiny"))
	waitTerminal(t, s, jobID(t, rec))
	submitCell(s, tinyWorkload("tiny")) // store hit

	res := httptest.NewRecorder()
	s.Handler().ServeHTTP(res, httptest.NewRequest("GET", "/metrics", nil))
	if res.Code != 200 {
		t.Fatalf("/metrics: %d", res.Code)
	}
	text := res.Body.String()
	for _, want := range []string{
		"svmsimd_queue_depth 0",
		"svmsimd_jobs_inflight 0",
		`svmsimd_jobs_accepted_total{kind="cell"} 2`,
		"svmsimd_jobs_done_total 1",
		`svmsimd_cache_hits_total{layer="store"} 1`,
		"svmsimd_cells_simulated_total 1",
		"svmsimd_cell_latency_seconds_count 1",
		`svmsimd_cell_latency_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
