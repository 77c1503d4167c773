// Package server implements svmsimd, the sweep-serving daemon: an HTTP
// front end over an exp.Suite that accepts experiment cells and whole sweeps
// as JSON (the versioned schema of internal/exp/codec.go), runs them on a
// bounded worker pool, and serves results from a content-addressed store so a
// resubmitted experiment costs zero simulations. Admission control is
// explicit: a full queue rejects with 429 + Retry-After rather than queueing
// unboundedly, and a draining server refuses new work with 503 while running
// every job it already accepted to completion.
//
// The daemon is crash-safe: with a journal directory configured, every
// accepted job is fsynced to a write-ahead log (journal.go) before the
// client sees 202, a restart replays the journal and re-enqueues incomplete
// work (warm from the suite's disk cache), and submissions are idempotent by
// content key — a client retrying after a crash coalesces onto the replayed
// job instead of simulating twice. A job runs to completion on its worker,
// and its answer, a run or a typed error, is final: a cell simulates the
// same way every time.
//
// Simulated behavior still sees no clocks: simulation latency is measured
// inside internal/exp (via internal/walltime) and arrives through the
// Suite.Observe hook.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"svmsim"
	"svmsim/internal/exp"
	"svmsim/internal/twin"
)

// Config sizes a Server. The zero value of any field selects its default.
type Config struct {
	// Suite executes the work; required. The server installs (and chains)
	// its Observe hook at construction time.
	Suite *exp.Suite
	// QueueDepth bounds the admission queue (default 64). Submissions
	// beyond it are rejected with 429 + Retry-After. Journal replay is
	// exempt: re-enqueued jobs ride above the bound while they wait,
	// because they were already accepted in a previous life.
	QueueDepth int
	// Workers sizes the job worker pool (default 2). Each worker runs one
	// job at a time; cell parallelism inside a sweep is the Suite's.
	Workers int
	// RetryAfterSeconds is advertised in the Retry-After header of 429
	// responses (default 2).
	RetryAfterSeconds int
	// MaxJobs bounds the job index (default 1024); the oldest finished
	// jobs are evicted first, their results remaining addressable through
	// the content store.
	MaxJobs int
	// JournalDir, when non-empty, enables the durable job journal: accepts
	// are fsynced before the ack and incomplete jobs are replayed on the
	// next start. Empty keeps the pre-journal in-memory behavior.
	JournalDir string
	// Twin, when non-nil, enables the analytical-twin endpoints
	// (POST /v1/twin/predict, POST /v1/twin/optimize): synchronous
	// model-based answers served on the request goroutine, bypassing the
	// job queue and result store entirely. First contact with a
	// workload/axis calibrates lazily through the Suite.
	Twin *twin.Twin
}

// Server is the svmsimd daemon core: routing, job queue, worker pool,
// durable journal, content-addressed result store and metrics registry.
// Create with New, serve via Handler, stop via Drain.
type Server struct {
	suite   *exp.Suite
	queue   chan *job
	metrics metrics
	mux     *http.ServeMux
	journal *journal
	twin    *twin.Twin

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // job IDs in creation order, for eviction
	byKey    map[string]*job // active (queued/running) jobs by content key
	store    map[string]stored
	seq      uint64
	queued   int  // submitted jobs waiting in the queue; queueDepth bounds it
	ready    bool // false during journal replay, true once serving
	draining bool

	workers    sync.WaitGroup
	inflight   atomic.Int64
	replayedN  int // jobs revived from the journal at startup
	queueDepth int
	maxJobs    int
	retry      string // Retry-After value for 429s
}

// Replayed reports how many incomplete jobs the journal revived at startup.
// A fronting layer (internal/fleet) uses a nonzero count to hold dispatch
// briefly while downstream capacity re-registers after a crash restart.
func (s *Server) Replayed() int { return s.replayedN }

// Metrics is the registry GET /metrics renders. A fronting layer
// (internal/fleet) declares its own series on it, after the daemon's, so
// one scrape shows both.
func (s *Server) Metrics() *Registry { return s.metrics.reg }

// metrics are the daemon's series on its registry.
type metrics struct {
	reg                 *Registry
	accepted, cacheHits LabeledCounter
	done, failed        Counter
	rejected, refused   Counter
	deduped, replayed   Counter
	simulated           Counter
	twinPredictions     Counter // declared only with the twin endpoints
	latency             Histogram
}

// newMetrics declares the daemon's series. Declaration order is scrape
// order, and the struct literal's calls run in the order written.
func newMetrics(s *Server) metrics {
	r := &Registry{}
	r.Func("gauge", "svmsimd_queue_depth", "Jobs waiting in the admission queue.", func() int64 { return int64(len(s.queue)) })
	r.Func("gauge", "svmsimd_jobs_inflight", "Jobs currently executing on the worker pool.", s.inflight.Load)
	m := metrics{
		reg:       r,
		accepted:  r.LabeledCounter("svmsimd_jobs_accepted_total", "Jobs admitted to the queue or served from the result store, by kind.", "kind"),
		done:      r.Counter("svmsimd_jobs_done_total", "Jobs finished successfully."),
		failed:    r.Counter("svmsimd_jobs_failed_total", "Jobs finished with a simulation error."),
		rejected:  r.Counter("svmsimd_jobs_rejected_total", "Submissions rejected with 429 because the queue was full."),
		refused:   r.Counter("svmsimd_jobs_refused_total", "Submissions refused with 503 during drain."),
		deduped:   r.Counter("svmsimd_jobs_deduped_total", "Resubmissions coalesced onto an already-active job with the same content key."),
		replayed:  r.Counter("svmsimd_jobs_replayed_total", "Incomplete jobs re-enqueued from the journal at startup."),
		cacheHits: r.LabeledCounter("svmsimd_cache_hits_total", "Cells served without a fresh simulation, by cache layer.", "layer"),
		simulated: r.Counter("svmsimd_cells_simulated_total", "Fresh simulations executed."),
	}
	if s.twin != nil {
		m.twinPredictions = r.Counter("svmsimd_twin_predictions_total", "Twin predict/optimize responses answered from the analytical model, bypassing the job queue.")
		r.Func("counter", "svmsimd_twin_calibrations_total", "Calibration passes that built or extended a twin model.", func() int64 { return int64(s.twin.Calibrations()) })
	}
	m.latency = r.Histogram("svmsimd_cell_latency_seconds", "Wall-clock simulation time per freshly simulated cell.",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60})
	return m
}

// New builds a Server over cfg.Suite, replays the journal if one is
// configured, and starts the worker pool. The suite's Observe hook is
// chained, not replaced, so callers keep their own observability.
func New(cfg Config) (*Server, error) {
	if cfg.Suite == nil {
		return nil, fmt.Errorf("server: Config.Suite is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = 2
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	s := &Server{
		suite:      cfg.Suite,
		jobs:       make(map[string]*job),
		byKey:      make(map[string]*job),
		store:      make(map[string]stored),
		queueDepth: cfg.QueueDepth,
		maxJobs:    cfg.MaxJobs,
		retry:      strconv.Itoa(cfg.RetryAfterSeconds),
		twin:       cfg.Twin,
	}
	s.metrics = newMetrics(s)

	var pending []*job
	if cfg.JournalDir != "" {
		jn, replayed, err := openJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.journal = jn
		pending = s.registerReplayed(replayed)
	}
	// The queue holds QueueDepth submitted jobs on top of everything
	// replayed: a restart must never 429 work it already accepted.
	s.queue = make(chan *job, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		s.queue <- j
	}
	s.metrics.replayed.Add(uint64(len(pending)))
	s.replayedN = len(pending)

	// Every cell the suite serves lands here: cache hits by layer, and
	// the latency of each fresh simulation.
	prev := cfg.Suite.Observe
	cfg.Suite.Observe = func(ev exp.CellEvent) {
		if prev != nil {
			prev(ev)
		}
		if ev.Source != exp.SourceSim {
			s.metrics.cacheHits.Inc(ev.Source.String())
			return
		}
		s.metrics.simulated.Inc()
		s.metrics.latency.Observe(ev.Seconds)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells", s.handleSubmitCell)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	if s.twin != nil {
		mux.HandleFunc("POST /v1/twin/predict", s.handleTwinPredict)
		mux.HandleFunc("POST /v1/twin/optimize", s.handleTwinOptimize)
	}
	mux.Handle("GET /metrics", s.metrics.reg)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux = mux

	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
	return s, nil
}

// registerReplayed rebuilds the job index from the journal's replay set:
// incomplete jobs are re-resolved against the current suite and returned
// for re-enqueueing (in journal order, ahead of any new admission). A spec
// that no longer resolves — the daemon restarted with a different suite, or
// the journal predates a schema change — terminates the job with a
// structured error instead of silently dropping it.
func (s *Server) registerReplayed(replayed []replayedJob) []*job {
	var pending []*job
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range replayed {
		if n := jobNum(r.ID); n > s.seq {
			s.seq = n
		}
		j := &job{
			id:     r.ID,
			kind:   r.Kind,
			key:    r.Key,
			spec:   r.Spec,
			status: statusQueued,
			done:   make(chan struct{}),
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if err := s.resolveReplayed(j); err != nil {
			j.status = statusFailed
			j.errKind, j.errMsg = "failed", "replaying journaled job: "+err.Error()
			s.journal.append(journalRecord{Op: opFinish, ID: j.id, ErrKind: j.errKind, Err: j.errMsg})
			close(j.done)
			continue
		}
		j.replayed = true
		s.byKey[j.key] = j
		pending = append(pending, j)
	}
	return pending
}

// resolveReplayed re-resolves a replayed job's wire spec into runnable work.
// The key is recomputed from the current suite (not trusted from the
// journal) so a daemon restarted with different baseline flags addresses
// the cell it will actually run.
func (s *Server) resolveReplayed(j *job) error {
	switch j.kind {
	case "cell":
		var spec exp.CellSpec
		if err := strictUnmarshal(j.spec, &spec); err != nil {
			return err
		}
		cell, err := s.suite.ResolveCell(spec)
		if err != nil {
			return err
		}
		j.cell, j.key = cell, cell.Key()
	case "sweep":
		var spec exp.SweepSpec
		if err := strictUnmarshal(j.spec, &spec); err != nil {
			return err
		}
		wls, mode, err := s.suite.ResolveSweep(spec)
		if err != nil {
			return err
		}
		j.sweep, j.key = spec, sweepKey(spec.Param, mode, wls)
	default:
		return fmt.Errorf("unknown job kind %q", j.kind)
	}
	return nil
}

// strictUnmarshal decodes a journaled spec with the same strictness as the
// HTTP path (unknown fields are errors, not guesses).
func strictUnmarshal(data []byte, v any) error {
	if len(data) == 0 {
		return fmt.Errorf("no spec journaled")
	}
	return DecodeJSON(strings.NewReader(string(data)), v)
}

// Handler exposes the daemon's routes.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admission and runs every accepted job to completion, or until
// ctx expires. It is idempotent; the readiness probe goes false and every
// submission is refused with 503 from the moment it is called.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		s.journal.close()
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain cut short with %d job(s) in flight", s.inflightCount())
	}
}

// jobView is the wire form of a job descriptor: compact single-line JSON so
// shell clients can capture `.id` without a JSON tool chain.
type jobView struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Key     string `json:"key"`
	Status  string `json:"status"`
	Cached  bool   `json:"cached,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
	Err     string `json:"err,omitempty"`
}

func viewLocked(j *job) jobView {
	return jobView{ID: j.id, Kind: j.kind, Key: j.key, Status: j.status,
		Cached: j.cached, ErrKind: j.errKind, Err: j.errMsg}
}

// handleSubmitCell admits one cell: POST /v1/cells with a CellSpec body.
func (s *Server) handleSubmitCell(w http.ResponseWriter, r *http.Request) {
	var spec exp.CellSpec
	if !decodeSpec(w, r, &spec) {
		return
	}
	cell, err := s.suite.ResolveCell(spec)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "failed", err.Error())
		return
	}
	s.submit(w, &job{kind: "cell", key: cell.Key(), cell: cell, spec: raw})
}

// handleSubmitSweep admits one sweep: POST /v1/sweeps with a SweepSpec body.
func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var spec exp.SweepSpec
	if !decodeSpec(w, r, &spec) {
		return
	}
	wls, mode, err := s.suite.ResolveSweep(spec)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "failed", err.Error())
		return
	}
	s.submit(w, &job{kind: "sweep", key: sweepKey(spec.Param, mode, wls), sweep: spec, spec: raw})
}

// sweepKey content-addresses a sweep by its resolved (not as-written)
// parameters, so "fft" and "FFT" and the spelled-out default workload list
// all land on one store entry.
func sweepKey(param string, mode svmsim.Mode, wls []svmsim.Workload) string {
	names := make([]string, 0, len(wls))
	for _, w := range wls {
		names = append(names, w.Name)
	}
	return "sweep|param=" + param + "|mode=" + exp.Modes.Name(mode) + "|apps=" + strings.Join(names, ",")
}

// submit runs admission control for a prepared job. In order: a draining
// server is 503; an active job with the same content key absorbs the
// submission (idempotent resubmission — same job id, zero new work); a
// store hit bypasses the queue entirely; a full queue is 429. Otherwise the
// job's accept record is fsynced to the journal *before* the 202 leaves, so
// acceptance is a durable promise: accepted jobs are never dropped, not
// even by SIGKILL.
func (s *Server) submit(w http.ResponseWriter, proto *job) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.refused.Inc()
		WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining; not accepting new work")
		return
	}
	if active, ok := s.byKey[proto.key]; ok {
		view := viewLocked(active)
		s.mu.Unlock()
		s.metrics.deduped.Inc()
		WriteJSON(w, http.StatusOK, view)
		return
	}
	if hit, ok := s.store[proto.key]; ok {
		j := s.newJobLocked(proto.kind, proto.key)
		j.cached = true
		j.result = hit.result
		j.errKind, j.errMsg = hit.errKind, hit.errMsg
		if hit.errMsg != "" {
			j.status = statusFailed
		} else {
			j.status = statusDone
		}
		close(j.done)
		view := viewLocked(j)
		s.mu.Unlock()
		s.metrics.accepted.Inc(proto.kind)
		s.metrics.cacheHits.Inc("store")
		WriteJSON(w, http.StatusOK, view)
		return
	}
	// Every queue send happens under s.mu (and workers only drain), so the
	// explicit bound check cannot race: reserving the slot here means the
	// send below never blocks. Replayed jobs still waiting hold the slots
	// above queueDepth, so they never count against it.
	if s.queued >= s.queueDepth {
		s.mu.Unlock()
		s.metrics.rejected.Inc()
		w.Header().Set("Retry-After", s.retry)
		WriteError(w, http.StatusTooManyRequests, "queue_full", "admission queue is full; retry later")
		return
	}
	j := s.newJobLocked(proto.kind, proto.key)
	j.cell, j.sweep, j.spec = proto.cell, proto.sweep, proto.spec
	if err := s.journal.append(journalRecord{Op: opAccept, ID: j.id, Kind: j.kind, Key: j.key, Spec: j.spec}); err != nil {
		// No durable accept, no acceptance: unregister and report, rather
		// than hand out a 202 the journal cannot honor after a crash.
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		WriteError(w, http.StatusInternalServerError, "journal_error", err.Error())
		return
	}
	s.byKey[j.key] = j
	s.queue <- j
	s.queued++
	view := viewLocked(j)
	s.mu.Unlock()
	s.metrics.accepted.Inc(proto.kind)
	WriteJSON(w, http.StatusAccepted, view)
}

// handleJobStatus reports one job: GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var view jobView
	if ok {
		view = viewLocked(j)
	}
	s.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

// handleJobResult serves a finished job's canonical result document:
// GET /v1/jobs/{id}/result. ?wait=1 blocks until the job finishes or the
// request context expires. A failed job yields a structured error body
// carrying the typed failure kind (stall, lost_page, link_failure, panic,
// failed).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			WriteError(w, http.StatusServiceUnavailable, "timeout", "job still running when the request deadline passed")
			return
		}
	}
	s.mu.Lock()
	status, kind, msg, data := j.status, j.errKind, j.errMsg, j.result
	s.mu.Unlock()
	switch status {
	case statusQueued, statusRunning:
		WriteError(w, http.StatusConflict, "pending", "job has not finished; poll again or use ?wait=1")
	case statusFailed:
		WriteError(w, http.StatusInternalServerError, kind, msg)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	}
}

// handleHealthz is pure liveness: the process is up and serving HTTP. It
// stays 200 through replay and drain — restarting a draining daemon would
// only lose work. Readiness (should traffic be routed here?) is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 only when the daemon is accepting work.
// It is false (503) while the journal replays at startup and from the
// moment Drain is called — load balancers stop routing before the 503s on
// the submission endpoints would surface to clients.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready, draining := s.ready, s.draining
	s.mu.Unlock()
	switch {
	case draining:
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !ready:
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "replaying"})
	default:
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// decodeSpec parses a request body with DecodeJSON, answering 400 when it
// fails.
func decodeSpec(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := DecodeJSON(r.Body, v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", "parsing request body: "+err.Error())
		return false
	}
	return true
}

// The JSON wire format of svmsimd and the fleet coordinator lives here:
// strict request decoding, one compact object per response line, and the
// structured error envelope of every non-2xx response.

// DecodeJSON strictly parses a JSON body of at most 1 MiB: unknown fields
// are errors, because a misspelled parameter must not silently run the
// baseline.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// WriteJSON writes one compact JSON object plus newline.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "failed", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// errorBody is the structured error envelope of every non-2xx response.
type errorBody struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
	} `json:"error"`
}

// WriteError answers code with the error envelope.
func WriteError(w http.ResponseWriter, code int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	io.WriteString(w, ErrorJSON(kind, msg))
}

// ErrorJSON is the error envelope's wire form, newline-terminated, for a
// writer that takes a fixed body (http.TimeoutHandler).
func ErrorJSON(kind, msg string) string {
	var body errorBody
	body.Error.Kind, body.Error.Message = kind, msg
	data, _ := json.Marshal(body)
	return string(data) + "\n"
}

// ParseError reads an error envelope; ok is false when data is not one.
func ParseError(data []byte) (kind, msg string, ok bool) {
	var body errorBody
	if json.Unmarshal(data, &body) != nil || body.Error.Kind == "" {
		return "", "", false
	}
	return body.Error.Kind, body.Error.Message, true
}
