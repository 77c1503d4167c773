// Package fleet turns N svmsimd daemons into one fault-tolerant
// sweep-serving cluster. A Coordinator is a full svmsimd front door — the
// same admission queue, write-ahead journal, content-addressed store and
// idempotent resubmission as internal/server, because it *is* an
// internal/server.Server — whose suite delegates cell execution to remote
// workers through the exp.Suite.Answer hook instead of simulating locally.
//
// Workers self-register (POST /v1/workers) with their capacity and cache
// identity and are tracked by a heartbeat failure detector using the same
// interval/suspect-timeout vocabulary as the simulated detector in
// internal/proto/failure.go. A cell routes to its home worker, chosen by
// rendezvous hashing on the worker's cache identity, which is stable across
// restarts on both sides; saturated nodes spill to the least loaded. After
// a crash restart, replayed cells wait one suspect timeout so that
// rendezvous sees the full membership. A cell runs on one worker at a time.
// A worker's answer, a run or a typed error, is the cell's verdict: the
// simulation is deterministic, so no other worker would answer differently.
// An attempt fails only when it gives no answer (the worker misses its
// suspect timeout, breaks a connection, refuses the submission or replies
// with something that is not an answer); then the cell is placed again,
// and after MaxDispatches attempts it is simulated locally. A worker that
// is only slow finishes its cell. Submissions are idempotent by content
// key, so placing a cell again never double-counts it. Losing workers
// shrinks capacity (the front door's 429s take over) but never loses an
// accepted job: acceptance is journaled at the coordinator before the ack,
// exactly as in the single-daemon contract.
//
// The invariant catalog lives in DESIGN.md §8c.
package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"svmsim/internal/exp"
	"svmsim/internal/server"
	"svmsim/internal/walltime"
)

// Config sizes a Coordinator. The zero value of any field selects its
// default.
type Config struct {
	// Suite resolves, assembles and (on fallback) simulates cells;
	// required. The coordinator installs its Answer hook on it.
	Suite *exp.Suite
	// Server configures the front door (admission, journal, store). Its
	// Suite field is overwritten by the coordinator.
	Server server.Config
	// HeartbeatInterval is how often workers are told to beat and how
	// often the monitor scans for silence (default 1s).
	HeartbeatInterval time.Duration
	// SuspectTimeout is the silence that declares a worker dead (default
	// 4 × HeartbeatInterval, matching internal/proto/failure.go).
	SuspectTimeout time.Duration
	// MaxDispatches bounds placements per cell, the first try included
	// (default 4).
	MaxDispatches int
	// WorkerWait is how long a dispatch waits for the first alive worker
	// before the cell is simulated locally (default 30s).
	WorkerWait time.Duration
	// Log, when non-nil, receives coordinator event lines (worker joins,
	// deaths, redispatches, local fallbacks).
	Log io.Writer
}

// Coordinator fronts the fleet. Create with New, serve Handler, stop with
// Drain.
type Coordinator struct {
	srv     *server.Server
	reg     *registry
	metrics metrics
	client  *Client
	mux     *http.ServeMux

	heartbeat     time.Duration
	maxDispatches int
	workerWait    time.Duration

	log      io.Writer
	logMu    sync.Mutex
	draining atomic.Bool
	stopc    chan struct{}
	monDone  chan struct{}
	settled  chan struct{} // closed once post-replay dispatch may proceed
}

// New builds a Coordinator over cfg.Suite: it installs the dispatch hook on
// the suite, constructs the front-door server (replaying any journal), and
// starts the heartbeat monitor. Workers join afterwards over HTTP; until
// the first one does, dispatches wait up to WorkerWait and then degrade.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Suite == nil {
		return nil, fmt.Errorf("fleet: Config.Suite is required")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 4 * cfg.HeartbeatInterval
	}
	if cfg.MaxDispatches <= 0 {
		cfg.MaxDispatches = 4
	}
	if cfg.WorkerWait <= 0 {
		cfg.WorkerWait = 30 * time.Second
	}

	c := &Coordinator{
		reg:           newRegistry(cfg.SuspectTimeout),
		client:        &Client{},
		heartbeat:     cfg.HeartbeatInterval,
		maxDispatches: cfg.MaxDispatches,
		workerWait:    cfg.WorkerWait,
		log:           cfg.Log,
		stopc:         make(chan struct{}),
		monDone:       make(chan struct{}),
		settled:       make(chan struct{}),
	}
	cfg.Suite.Answer = c.remote

	scfg := cfg.Server
	scfg.Suite = cfg.Suite
	// The front door replays the journal inside server.New, and replayed
	// jobs start executing immediately — everything they need (registry,
	// hook, monitor state) is wired above. Replayed cells block on the
	// settle gate below until the worker fleet has had a beat to
	// re-register, so rendezvous sees the full membership and each cell
	// goes back to its home worker, whose disk may already hold it: without
	// the gate the first worker to re-register would receive every replayed
	// cell and re-simulate the ones a slower peer finished. The gate holds
	// for one suspect timeout, the time a worker needs to discover the
	// restart (its beat answers 404) and re-register. It also orders the
	// fleet's series, declared next, before any dispatch touches them.
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	c.srv = srv
	c.metrics = newMetrics(srv.Metrics(), c.reg)

	if n := srv.Replayed(); n > 0 {
		c.logf("fleet: %d replayed jobs; holding dispatch %v for workers to re-register", n, cfg.SuspectTimeout)
		go func() {
			t := walltime.NewTimer(cfg.SuspectTimeout)
			defer t.Stop()
			select {
			case <-t.C():
			case <-c.stopc:
			}
			close(c.settled)
		}()
	} else {
		close(c.settled)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("DELETE /v1/workers/{id}", c.handleLeave)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.Handle("/", srv.Handler())
	c.mux = mux

	go c.monitor()
	return c, nil
}

// metrics are the fleet's series. Per-worker series are labelled with the
// coordinator-assigned worker ID.
type metrics struct {
	redispatched, fallbacks             server.Counter
	dispatched, completed, dispatchErrs server.LabeledCounter
	latency                             server.Histogram
}

// newMetrics declares the fleet's series on the front door's registry,
// after the daemon's own, so one scrape shows both. Declaration order is
// scrape order, and the struct literal's calls run in the order written.
func newMetrics(r *server.Registry, reg *registry) metrics {
	r.Func("gauge", "fleet_workers", "Alive registered workers.", func() int64 { alive, _, _ := reg.counts(); return int64(alive) })
	r.Func("counter", "fleet_worker_deaths_total", "Workers retired by the failure detector or a broken connection.", func() int64 { _, deaths, _ := reg.counts(); return int64(deaths) })
	r.Func("counter", "fleet_worker_leaves_total", "Workers that deregistered gracefully (or re-registered).", func() int64 { _, _, leaves := reg.counts(); return int64(leaves) })
	m := metrics{
		redispatched: r.Counter("fleet_jobs_redispatched_total", "Cells re-placed on another worker after a failed dispatch."),
		fallbacks:    r.Counter("fleet_local_fallbacks_total", "Cells simulated locally because the fleet could not place them."),
		dispatched:   r.LabeledCounter("fleet_cells_dispatched_total", "Cells sent to each worker.", "worker"),
		completed:    r.LabeledCounter("fleet_cells_completed_total", "Cells each worker answered successfully.", "worker"),
		dispatchErrs: r.LabeledCounter("fleet_dispatch_errors_total", "Dispatch attempts that failed per worker (transport errors, lost workers, refused submissions, malformed replies).", "worker"),
	}
	r.LabeledFunc("gauge", "fleet_worker_inflight", "Outstanding dispatches per worker.", "worker", reg.inflight)
	// Coarser than the daemon's cell-latency buckets: a dispatch adds
	// queueing and network time to the simulation.
	m.latency = r.Histogram("fleet_dispatch_latency_seconds", "Wall-clock time per successful dispatch (queueing + network + simulation).",
		[]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60})
	return m
}

// Handler exposes the coordinator's routes: the worker-membership API plus
// everything a plain daemon serves.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Drain stops admission, runs every accepted job to completion (or until
// ctx expires), then stops the heartbeat monitor. The monitor keeps running
// through the drain on purpose: a worker dying mid-drain must still be
// detected so its cells re-dispatch rather than hang the drain.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.draining.Store(true)
	err := c.srv.Drain(ctx)
	close(c.stopc)
	<-c.monDone
	return err
}

// monitor is the failure-detector loop: scan for suspect workers every half
// interval (prompt detection without hot-spinning) until Drain finishes.
func (c *Coordinator) monitor() {
	defer close(c.monDone)
	every := c.heartbeat / 2
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	for {
		t := walltime.NewTimer(every)
		select {
		case <-c.stopc:
			t.Stop()
			return
		case <-t.C():
		}
		for _, died := range c.reg.scan() {
			c.logf("fleet: worker %s missed its suspect timeout; declared dead", died)
		}
	}
}

// regRequest is the worker registration body (POST /v1/workers).
type regRequest struct {
	// URL is the worker's reachable base URL; required.
	URL string `json:"url"`
	// Capacity is how many concurrent dispatches the worker wants
	// (its own worker-pool size); minimum 1.
	Capacity int `json:"capacity,omitempty"`
	// CacheID identifies the worker's persistent cell cache (host + cache
	// dir). Routing hashes it, so incarnations that share it share homes.
	CacheID string `json:"cache_id,omitempty"`
	// WarmKeys is accepted and ignored. Workers built before routing
	// became rendezvous alone send the keys already in their cache, and
	// DecodeJSON refuses unknown fields: without it such a worker could
	// never join.
	WarmKeys []string `json:"warm_keys,omitempty"`
}

// regResponse acknowledges a registration with the assigned ID and the
// heartbeat cadence the coordinator expects.
type regResponse struct {
	ID                  string `json:"id"`
	HeartbeatIntervalMs int64  `json:"heartbeat_interval_ms"`
	SuspectTimeoutMs    int64  `json:"suspect_timeout_ms"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		server.WriteError(w, http.StatusServiceUnavailable, "draining", "coordinator is draining; not accepting workers")
		return
	}
	var req regRequest
	if err := server.DecodeJSON(r.Body, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		server.WriteError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("worker url %q is not an absolute URL", req.URL))
		return
	}
	wk := c.reg.register(req.URL, req.Capacity, req.CacheID)
	c.logf("fleet: worker %s joined from %s (capacity %d, cache %q)",
		wk.id, wk.url, wk.capacity, wk.cacheID)
	server.WriteJSON(w, http.StatusCreated, regResponse{
		ID:                  wk.id,
		HeartbeatIntervalMs: c.heartbeat.Milliseconds(),
		SuspectTimeoutMs:    c.reg.timeout.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	switch c.reg.heartbeat(r.PathValue("id")) {
	case hbOK:
		w.WriteHeader(http.StatusNoContent)
	case hbUnknown:
		// This coordinator has no memory of the ID — it restarted. 404
		// tells the worker to re-register.
		server.WriteError(w, http.StatusNotFound, "unknown_worker", "unknown worker id; re-register")
	default:
		// Declared dead (or replaced by a re-registration). The worker is
		// evidently alive after all; 410 tells it to rejoin under a new ID.
		server.WriteError(w, http.StatusGone, "retired_worker", "worker was retired; re-register")
	}
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !c.reg.leave(id) {
		server.WriteError(w, http.StatusNotFound, "unknown_worker", "no such live worker")
		return
	}
	c.logf("fleet: worker %s left gracefully", id)
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{"workers": c.reg.views()})
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.log == nil {
		return
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	fmt.Fprintf(c.log, format+"\n", args...)
}
