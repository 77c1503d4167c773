package fleet

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svmsim/internal/server"
	"svmsim/internal/walltime"
)

// worker is one registered svmsimd instance as the coordinator sees it.
// Immutable identity fields are set at registration; mutable state is
// guarded by registry.mu.
type worker struct {
	id       string
	url      string
	cacheID  string
	capacity int

	inflight  int           // outstanding dispatches, coordinator-side view
	lastHeard time.Duration // registry-stopwatch offset of the last sign of life
	gone      bool          // retired (death or leave); terminal
	// down is closed exactly once when the worker is retired. In-flight
	// dispatches select on it so a death detected by the heartbeat monitor
	// aborts their HTTP calls immediately instead of waiting out a timeout.
	down chan struct{}
}

// heartbeat verdicts (see registry.heartbeat).
const (
	hbOK      = iota // known and alive: keep beating
	hbUnknown        // never heard of it (coordinator restarted): re-register
	hbGone           // declared dead or left: re-register under a new ID
)

// registry tracks fleet membership. It is the failure detector's state: the
// same interval/suspect-timeout vocabulary as the simulated detector in
// internal/proto/failure.go, but over wall time (via walltime — this is
// harness, not simulation). Workers that miss the suspect timeout are
// retired exactly once; retirement closes the worker's down channel, which
// is the broadcast that unblocks every dispatch waiting on that node.
type registry struct {
	sw      walltime.Stopwatch
	timeout time.Duration

	epoch string // per-incarnation ID scope (see newRegistry)

	mu      sync.Mutex
	seq     int
	workers map[string]*worker
	order   []string      // worker IDs in registration order, for deterministic scans
	joined  chan struct{} // closed and replaced on every registration (join broadcast)

	deaths uint64
	leaves uint64
}

// regEpoch distinguishes registry incarnations within one process.
var regEpoch atomic.Uint64

func newRegistry(suspectTimeout time.Duration) *registry {
	return &registry{
		sw:      walltime.Start(),
		timeout: suspectTimeout,
		// Worker IDs are scoped to this registry incarnation (pid plus an
		// in-process counter). Sequential IDs alone are a trap: after a
		// coordinator restart, a surviving worker beating its old "w1"
		// could collide with a *different* worker freshly assigned "w1" —
		// its heartbeats would land 204 against someone else's entry and
		// it would never learn to re-register. A stale-epoch ID can never
		// match, so it always answers 404 (hbUnknown) instead.
		epoch:   fmt.Sprintf("%d.%d", os.Getpid(), regEpoch.Add(1)),
		workers: make(map[string]*worker),
		joined:  make(chan struct{}),
	}
}

// register admits a worker and assigns its ID. A URL that is already
// registered replaces its previous incarnation — the old entry is retired
// as a leave, not a death, because a re-registration is the worker telling
// us it restarted, and its in-flight dispatches (if any) must re-route.
func (r *registry) register(url string, capacity int, cacheID string) *worker {
	url = strings.TrimRight(url, "/")
	if capacity < 1 {
		capacity = 1
	}
	if cacheID == "" {
		// No cache identity: the URL keeps a cell's home stable while the
		// worker keeps its address.
		cacheID = url
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range r.order {
		if w := r.workers[id]; w != nil && !w.gone && w.url == url {
			r.retireLocked(w, true)
		}
	}
	r.seq++
	w := &worker{
		id:        fmt.Sprintf("w%d-%s", r.seq, r.epoch),
		url:       url,
		cacheID:   cacheID,
		capacity:  capacity,
		lastHeard: r.sw.Elapsed(),
		down:      make(chan struct{}),
	}
	r.workers[w.id] = w
	r.order = append(r.order, w.id)
	close(r.joined)
	r.joined = make(chan struct{})
	return w
}

// heartbeat refreshes a worker's liveness and classifies unknown senders so
// the HTTP layer can tell them to re-register.
func (r *registry) heartbeat(id string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	switch {
	case !ok:
		return hbUnknown
	case w.gone:
		return hbGone
	}
	w.lastHeard = r.sw.Elapsed()
	return hbOK
}

// leave retires a worker gracefully (DELETE /v1/workers/{id}); it reports
// whether the ID was known and alive.
func (r *registry) leave(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok || w.gone {
		return false
	}
	r.retireLocked(w, true)
	return true
}

// condemn retires a worker on direct evidence of death — a refused or
// broken connection during dispatch — without waiting for the heartbeat
// monitor to notice. Idempotent: a worker dies at most once.
func (r *registry) condemn(w *worker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retireLocked(w, false)
}

// retireLocked is the single place a worker transitions to gone. Exactly
// one close of down, exactly one count toward deaths or leaves — the chaos
// tests assert on "exactly once" and this is what makes it true.
func (r *registry) retireLocked(w *worker, graceful bool) {
	if w.gone {
		return
	}
	w.gone = true
	if graceful {
		r.leaves++
	} else {
		r.deaths++
	}
	close(w.down)
}

// scan retires every worker whose silence exceeds the suspect timeout; it
// returns descriptions of the newly dead for logging.
func (r *registry) scan() []string {
	now := r.sw.Elapsed()
	r.mu.Lock()
	defer r.mu.Unlock()
	var died []string
	for _, id := range r.order {
		w := r.workers[id]
		if w != nil && !w.gone && now-w.lastHeard > r.timeout {
			r.retireLocked(w, false)
			died = append(died, w.id+" ("+w.url+")")
		}
	}
	return died
}

// acquire and release bracket one dispatch's claim on a worker slot.
func (r *registry) acquire(w *worker) {
	r.mu.Lock()
	w.inflight++
	r.mu.Unlock()
}

func (r *registry) release(w *worker) {
	r.mu.Lock()
	w.inflight--
	r.mu.Unlock()
}

// pick chooses a worker for key, never one in exclude. Order of preference:
//
//  1. Rendezvous: highest hash(cacheID, key) among non-saturated workers.
//     Hashing the *cache identity*, not the worker ID or URL, gives each
//     cell a home that survives worker re-registrations and coordinator
//     restarts, so a cell a worker finished before either lands back on
//     the disk that holds it.
//  2. Overload spill: everyone is saturated; least relative load wins.
//
// A worker still counts as non-saturated with one dispatch queued beyond
// its capacity: the home is a hint, not a correctness property, but a
// stable hint is worth a short queue. Returns nil when no alive candidate
// remains.
func (r *registry) pick(key string, exclude map[string]bool) *worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	var alive []*worker
	for _, id := range r.order {
		w := r.workers[id]
		if w != nil && !w.gone && !exclude[w.id] {
			alive = append(alive, w)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	var best *worker
	var top uint64
	for _, w := range alive {
		if w.inflight > w.capacity {
			continue
		}
		if h := rendezvous(w.cacheID, key); best == nil || h > top {
			best, top = w, h
		}
	}
	if best != nil {
		return best
	}
	for _, w := range alive {
		if best == nil || w.inflight*best.capacity < best.inflight*w.capacity {
			best = w
		}
	}
	return best
}

// rendezvous is the highest-random-weight hash: each (cacheID, key) pair
// gets an independent uniform weight, so removing a worker reshuffles only
// the cells that lived on it.
func rendezvous(cacheID, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(cacheID))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// waitForWorker blocks until at least one alive worker exists, the wait
// budget expires, or stop closes. It is what lets a coordinator accept work
// before its first worker joins: the dispatch parks here instead of
// failing.
func (r *registry) waitForWorker(d time.Duration, stop <-chan struct{}) bool {
	t := walltime.NewTimer(d)
	defer t.Stop()
	for {
		r.mu.Lock()
		alive := false
		for _, id := range r.order {
			if w := r.workers[id]; w != nil && !w.gone {
				alive = true
				break
			}
		}
		joined := r.joined
		r.mu.Unlock()
		if alive {
			return true
		}
		select {
		case <-joined:
		case <-t.C():
			return false
		case <-stop:
			return false
		}
	}
}

// counts snapshots the membership tallies for metrics.
func (r *registry) counts() (alive int, deaths, leaves uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range r.order {
		if w := r.workers[id]; w != nil && !w.gone {
			alive++
		}
	}
	return alive, r.deaths, r.leaves
}

// inflight reads each alive worker's outstanding dispatches, in
// registration order (the fleet_worker_inflight gauge).
func (r *registry) inflight() []server.Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []server.Sample
	for _, id := range r.order {
		if w := r.workers[id]; w != nil && !w.gone {
			out = append(out, server.Sample{Label: w.id, Value: int64(w.inflight)})
		}
	}
	return out
}

// workerView is the wire form of one registry entry (GET /v1/workers).
type workerView struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	CacheID  string `json:"cache_id,omitempty"`
	Capacity int    `json:"capacity"`
	Inflight int    `json:"inflight"`
	Alive    bool   `json:"alive"`
}

// views snapshots every worker in registration order.
func (r *registry) views() []workerView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]workerView, 0, len(r.order))
	for _, id := range r.order {
		w := r.workers[id]
		if w == nil {
			continue
		}
		out = append(out, workerView{
			ID: w.id, URL: w.url, CacheID: w.cacheID, Capacity: w.capacity,
			Inflight: w.inflight, Alive: !w.gone,
		})
	}
	return out
}
