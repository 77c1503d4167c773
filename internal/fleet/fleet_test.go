package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"svmsim/internal/exp"
	"svmsim/internal/server"
	"svmsim/internal/walltime"
)

// waitUntil polls cond until it holds or the budget expires.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	sw := walltime.Start()
	for sw.Elapsed() < d {
		if cond() {
			return
		}
		walltime.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// --- registry ---

func TestRegistryLifecycle(t *testing.T) {
	r := newRegistry(50 * time.Millisecond)
	w1 := r.register("http://a:1", 2, "hostA:/cache")
	w2 := r.register("http://b:1", 1, "hostB:/cache")
	if w1.id == w2.id {
		t.Fatal("worker IDs collide")
	}
	if alive, _, _ := r.counts(); alive != 2 {
		t.Fatalf("alive = %d, want 2", alive)
	}
	if got := r.heartbeat(w1.id); got != hbOK {
		t.Fatalf("heartbeat verdict = %d, want hbOK", got)
	}
	if got := r.heartbeat("w999"); got != hbUnknown {
		t.Fatalf("unknown heartbeat verdict = %d, want hbUnknown", got)
	}

	// Graceful leave: counted once, down closed, later heartbeats say gone.
	if !r.leave(w2.id) {
		t.Fatal("leave of live worker refused")
	}
	if r.leave(w2.id) {
		t.Fatal("second leave of same worker accepted")
	}
	select {
	case <-w2.down:
	default:
		t.Fatal("down not closed on leave")
	}
	if got := r.heartbeat(w2.id); got != hbGone {
		t.Fatalf("retired heartbeat verdict = %d, want hbGone", got)
	}

	// Silence past the suspect timeout: exactly one death.
	walltime.Sleep(70 * time.Millisecond)
	if died := r.scan(); len(died) != 1 || !strings.Contains(died[0], w1.id) {
		t.Fatalf("scan retired %v, want exactly %s", died, w1.id)
	}
	if died := r.scan(); len(died) != 0 {
		t.Fatalf("second scan re-retired: %v", died)
	}
	r.condemn(w1) // idempotent: already gone
	alive, deaths, leaves := r.counts()
	if alive != 0 || deaths != 1 || leaves != 1 {
		t.Fatalf("alive/deaths/leaves = %d/%d/%d, want 0/1/1", alive, deaths, leaves)
	}
}

func TestRegistryReRegisterSameURL(t *testing.T) {
	r := newRegistry(time.Minute)
	old := r.register("http://a:1", 1, "hostA:/cache")
	r.register("http://b:1", 1, "hostB:/cache")
	var won []string
	for i := 0; i < 16; i++ {
		if key := fmt.Sprintf("cell-%d", i); r.pick(key, nil) == old {
			won = append(won, key)
		}
	}
	if len(won) == 0 {
		t.Fatal("the first incarnation is home to none of 16 keys")
	}
	fresh := r.register("http://a:1/", 1, "hostA:/cache")
	if fresh.id == old.id {
		t.Fatal("re-registration reused the ID")
	}
	select {
	case <-old.down:
	default:
		t.Fatal("old incarnation not retired on re-register")
	}
	alive, deaths, leaves := r.counts()
	if alive != 2 || deaths != 0 || leaves != 1 {
		t.Fatalf("alive/deaths/leaves = %d/%d/%d, want 2/0/1 (re-register is a leave, not a death)", alive, deaths, leaves)
	}
	// Rendezvous hashes the cache identity, so the new incarnation is home
	// to every cell the old one was.
	for _, key := range won {
		if got := r.pick(key, nil); got != fresh {
			t.Fatalf("pick(%s) = %v, want the fresh incarnation", key, got)
		}
	}
}

func TestPickRouting(t *testing.T) {
	r := newRegistry(time.Minute)
	a := r.register("http://a:1", 1, "hostA:/cache")
	b := r.register("http://b:1", 1, "hostB:/cache")

	// Cold keys route by rendezvous: deterministic for a fixed key.
	first := r.pick("cold-key", nil)
	for i := 0; i < 5; i++ {
		if got := r.pick("cold-key", nil); got != first {
			t.Fatal("rendezvous choice is unstable")
		}
	}

	// Exclusion removes the rendezvous winner; the other one takes it.
	other := a
	if first == a {
		other = b
	}
	if got := r.pick("cold-key", map[string]bool{first.id: true}); got != other {
		t.Fatalf("exclusion ignored: got %v", got)
	}
	if got := r.pick("cold-key", map[string]bool{a.id: true, b.id: true}); got != nil {
		t.Fatalf("pick with everyone excluded = %v, want nil", got)
	}

	// Saturation: a worker more than one past capacity loses rendezvous
	// standing; the spill path balances by relative load.
	r.acquire(first)
	r.acquire(first) // inflight 2 > capacity 1
	if got := r.pick("another-cold-key-x", nil); got == first && first.inflight > first.capacity {
		// Rendezvous may legitimately have chosen the other worker; only a
		// saturated winner is wrong.
		t.Fatalf("saturated worker still wins rendezvous")
	}

	// Spill: with every worker saturated, the least relative load wins,
	// whatever rendezvous says. A worker of capacity 4 running 6 (150%)
	// beats one of capacity 1 running 2 (200%), and loses to it at 9
	// (225%).
	s := newRegistry(time.Minute)
	small := s.register("http://small:1", 1, "small:/cache")
	big := s.register("http://big:1", 4, "big:/cache")
	for i := 0; i < 2; i++ {
		s.acquire(small)
	}
	for i := 0; i < 6; i++ {
		s.acquire(big)
	}
	keys := []string{"spill-a", "spill-b", "spill-c"}
	for _, key := range keys {
		if got := s.pick(key, nil); got != big {
			t.Fatalf("spill pick(%s) = %s, want the capacity-4 worker at 150%%", key, got.id)
		}
	}
	for i := 0; i < 3; i++ {
		s.acquire(big)
	}
	for _, key := range keys {
		if got := s.pick(key, nil); got != small {
			t.Fatalf("spill pick(%s) = %s, want the capacity-1 worker at 200%%, not 225%%", key, got.id)
		}
	}
}

// TestPickSurvivesCoordinatorRestart: a restarted coordinator is a fresh
// registry, with a new epoch, that learns the same workers in whatever
// order they re-register and under whatever URLs they now listen on. Every
// cell must keep its home cache identity, so the cells a worker finished
// before the restart go back to the disk that holds them.
func TestPickSurvivesCoordinatorRestart(t *testing.T) {
	ids := []string{"hostA:/cache", "hostB:/cache", "hostC:/cache"}
	before, after := newRegistry(time.Minute), newRegistry(time.Minute)
	for i, id := range ids {
		before.register(fmt.Sprintf("http://before%d:1", i), 1, id)
		after.register(fmt.Sprintf("http://after%d:1", i), 1, ids[len(ids)-1-i])
	}
	// FNV-1a spreads a small change in its input weakly: a hash salted per
	// incarnation still agreed on all of 64 keys in about 1 run in 10, and
	// on 1,024 keys in none of 2,000.
	for i := 0; i < 1024; i++ {
		key := fmt.Sprintf("cell-%d", i)
		if b, a := before.pick(key, nil), after.pick(key, nil); b.cacheID != a.cacheID {
			t.Fatalf("pick(%s) = %s before the restart, %s after", key, b.cacheID, a.cacheID)
		}
	}
}

func TestWaitForWorker(t *testing.T) {
	r := newRegistry(time.Minute)
	stop := make(chan struct{})
	if r.waitForWorker(20*time.Millisecond, stop) {
		t.Fatal("waitForWorker reported a worker in an empty registry")
	}
	done := make(chan bool, 1)
	go func() { done <- r.waitForWorker(2*time.Second, stop) }()
	walltime.Sleep(10 * time.Millisecond)
	r.register("http://a:1", 1, "")
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("waitForWorker missed the join broadcast")
		}
	case <-walltime.NewTimer(time.Second).C():
		t.Fatal("waitForWorker did not wake on join")
	}
}

// --- client ---

func TestClientHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer ts.Close()

	// A 1 s BaseBackoff makes an ignored header obvious: the zero
	// Retry-After must override the computed delay.
	c := &Client{BaseBackoff: time.Second}
	if d := c.delay(0, "0"); d > 10*time.Millisecond {
		t.Errorf("Retry-After: 0 produced delay %v (header not honored)", d)
	}
	status, body, err := c.Do(context.Background(), http.MethodGet, ts.URL, nil)
	if err != nil || status != http.StatusOK || string(body) != "ok" {
		t.Fatalf("Do = %d %q %v", status, body, err)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want two 429s then the answer", n)
	}
}

func TestClientBackoffCapAndExhaustion(t *testing.T) {
	c := &Client{BaseBackoff: 100 * time.Millisecond, MaxBackoff: 300 * time.Millisecond}
	// A huge Retry-After is capped (plus <=25% jitter).
	if d := c.delay(0, "3600"); d > 300*time.Millisecond+75*time.Millisecond+time.Nanosecond {
		t.Fatalf("delay %v exceeds the cap", d)
	}
	// Exponential growth also caps.
	if d := c.delay(10, ""); d > 375*time.Millisecond+time.Nanosecond {
		t.Fatalf("attempt-10 delay %v exceeds the cap", d)
	}

	// A 429 on the final attempt returns to the caller instead of erroring:
	// the server's verdict, not the client's.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	fast := &Client{MaxAttempts: 2, BaseBackoff: time.Millisecond}
	status, _, err := fast.Do(context.Background(), http.MethodGet, ts.URL, nil)
	if err != nil || status != http.StatusTooManyRequests {
		t.Fatalf("exhausted Do = %d, %v; want the final 429", status, err)
	}

	// Transport errors exhaust into an error, and the backoff falls only
	// between attempts: two attempts at a 300ms base sleep once (at most
	// 375ms with jitter), not after the last failure too (900ms and more).
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	dead := &Client{MaxAttempts: 2, BaseBackoff: 300 * time.Millisecond}
	sw := walltime.Start()
	if _, _, err := dead.Do(context.Background(), http.MethodGet, gone.URL, nil); err == nil {
		t.Fatal("transport failure did not error after exhaustion")
	}
	if d := sw.Elapsed(); d >= 700*time.Millisecond {
		t.Fatalf("exhausted Do returned after %v; it slept after its last attempt", d)
	}
}

// --- coordinator integration (real servers over loopback HTTP) ---

// testWorker is one real svmsimd worker behind an httptest listener.
type testWorker struct {
	srv *server.Server
	ts  *httptest.Server
}

func startWorker(t *testing.T, cacheDir string) *testWorker {
	t.Helper()
	suite := exp.NewSuite(exp.Small)
	suite.CacheDir = cacheDir
	srv, err := server.New(server.Config{Suite: suite, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return &testWorker{srv: srv, ts: ts}
}

func newTestCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Suite == nil {
		cfg.Suite = exp.NewSuite(exp.Small)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		coord.Drain(ctx)
	})
	return coord, ts
}

// registerHTTP registers a worker URL with the coordinator over the wire.
func registerHTTP(t *testing.T, coordURL, workerURL, cacheID string) string {
	t.Helper()
	body, _ := json.Marshal(regRequest{URL: workerURL, Capacity: 1, CacheID: cacheID})
	resp, err := http.Post(coordURL+"/v1/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg regResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("registration: status %d, err %v", resp.StatusCode, err)
	}
	return reg.ID
}

// submitAndWait drives the coordinator's public API like a client would.
func submitAndWait(t *testing.T, base, path string, body []byte) (int, []byte) {
	t.Helper()
	status, data, err := (&Client{}).SubmitAndWait(context.Background(), base, path, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, data
}

// parseScrape reads a Prometheus text scrape into its samples, keyed by the
// series as printed: the name plus any label set, e.g.
// fleet_cells_dispatched_total{worker="w1-…"}. A sample line without a
// parseable value fails the test.
func parseScrape(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		samples[line[:i]] = v
	}
	return samples
}

// sampleOf returns one series of a parsed scrape, failing the test when the
// scrape lacks it.
func sampleOf(t *testing.T, samples map[string]float64, series string) float64 {
	t.Helper()
	v, ok := samples[series]
	if !ok {
		t.Fatalf("series %s absent from the scrape", series)
	}
	return v
}

// metricValue scrapes one series from the coordinator's /metrics.
func metricValue(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return sampleOf(t, parseScrape(t, body), series)
}

// TestFleetSweepByteIdentical is the end-to-end contract: a sweep served by
// a coordinator dispatching to two workers must produce byte-for-byte the
// document a single local daemon produces, with zero local simulations on
// the coordinator.
func TestFleetSweepByteIdentical(t *testing.T) {
	suite := exp.NewSuite(exp.Small)
	var localSims atomic.Int64
	suite.Observe = func(ev exp.CellEvent) {
		if ev.Source == exp.SourceSim {
			localSims.Add(1)
		}
	}
	_, coordURL := newTestCoordinator(t, Config{Suite: suite, SuspectTimeout: time.Minute})
	w1 := startWorker(t, "")
	w2 := startWorker(t, "")
	registerHTTP(t, coordURL.URL, w1.ts.URL, "w1:/cache")
	registerHTTP(t, coordURL.URL, w2.ts.URL, "w2:/cache")

	spec := []byte(`{"param":"interrupt","apps":["FFT"]}`)
	status, got := submitAndWait(t, coordURL.URL, "/v1/sweeps", spec)
	if status != http.StatusOK {
		t.Fatalf("sweep failed: %d %s", status, got)
	}

	ref := exp.NewSuite(exp.Small)
	res, err := ref.RunSweep(exp.SweepSpec{Param: "interrupt", Apps: []string{"FFT"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet sweep differs from local sweep:\nfleet:\n%s\nlocal:\n%s", got, want)
	}
	if n := localSims.Load(); n != 0 {
		t.Fatalf("coordinator simulated %d cells locally; the fleet should have taken all of them", n)
	}
	if v := metricValue(t, coordURL.URL, "fleet_local_fallbacks_total"); v != 0 {
		t.Fatalf("fleet_local_fallbacks_total = %g, want 0", v)
	}
}

// TestFleetRedispatchOnWorkerDeath: a worker that accepts a cell and then
// goes silent must be declared dead by the failure detector, its in-flight
// cell aborted (down-channel cancellation, not an HTTP timeout) and
// re-dispatched onto a live worker — and the job still completes correctly.
func TestFleetRedispatchOnWorkerDeath(t *testing.T) {
	// The black hole accepts submissions and never answers result polls.
	accepted := make(chan struct{}, 16)
	blackHole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			accepted <- struct{}{}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"j1","state":"queued"}`)
			return
		}
		<-r.Context().Done() // hang until the caller gives up
	}))
	defer blackHole.Close()

	coord, coordURL := newTestCoordinator(t, Config{
		HeartbeatInterval: 50 * time.Millisecond,
		SuspectTimeout:    300 * time.Millisecond,
		WorkerWait:        10 * time.Second,
	})
	registerHTTP(t, coordURL.URL, blackHole.URL, "dead:/cache")

	// Submit one cell; it must land on the black hole (the only worker).
	done := make(chan []byte, 1)
	go func() {
		_, data := submitAndWait(t, coordURL.URL, "/v1/cells", []byte(`{"workload":"LU"}`))
		done <- data
	}()
	select {
	case <-accepted:
	case <-walltime.NewTimer(5 * time.Second).C():
		t.Fatal("black hole never saw the dispatch")
	}

	// Now a real worker joins and heartbeats; the black hole stays silent
	// and must be retired by the monitor, re-routing the in-flight cell.
	live := startWorker(t, "")
	m := Join(&Client{}, coordURL.URL, WorkerInfo{URL: live.ts.URL, Capacity: 1}, t.Logf)
	defer m.Leave()

	var data []byte
	select {
	case data = <-done:
	case <-walltime.NewTimer(60 * time.Second).C():
		t.Fatal("cell never completed after worker death")
	}
	res, err := exp.DecodeCellResult(data)
	if err != nil || res.Run == nil {
		t.Fatalf("redispatched cell result: %v (%s)", err, data)
	}

	waitUntil(t, 5*time.Second, "death metric", func() bool {
		return metricValue(t, coordURL.URL, "fleet_worker_deaths_total") >= 1
	})
	if v := metricValue(t, coordURL.URL, "fleet_jobs_redispatched_total"); v < 1 {
		t.Fatalf("fleet_jobs_redispatched_total = %g, want >= 1", v)
	}
	_ = coord
}

// TestFleetFallsBackWithNoWorkers: a worker-less coordinator degrades to a
// plain daemon — the cell simulates locally after WorkerWait and the
// degradation is visible in metrics.
func TestFleetFallsBackWithNoWorkers(t *testing.T) {
	_, coordURL := newTestCoordinator(t, Config{WorkerWait: 50 * time.Millisecond})
	status, data := submitAndWait(t, coordURL.URL, "/v1/cells", []byte(`{"workload":"LU"}`))
	if status != http.StatusOK {
		t.Fatalf("fallback cell failed: %d %s", status, data)
	}
	if v := metricValue(t, coordURL.URL, "fleet_local_fallbacks_total"); v != 1 {
		t.Fatalf("fleet_local_fallbacks_total = %g, want 1", v)
	}
}

// TestMembershipRejoinsAfterCoordinatorRestart: a coordinator restart wipes
// its registry; the worker's next heartbeat gets 404 and the membership
// loop must re-register without operator help.
func TestMembershipRejoinsAfterCoordinatorRestart(t *testing.T) {
	var current atomic.Pointer[Coordinator]
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().Handler().ServeHTTP(w, r)
	}))
	defer front.Close()

	mk := func() *Coordinator {
		c, err := New(Config{Suite: exp.NewSuite(exp.Small), HeartbeatInterval: 20 * time.Millisecond, SuspectTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			c.Drain(ctx)
		})
		return c
	}
	c1 := mk()
	current.Store(c1)

	m := Join(&Client{BaseBackoff: 5 * time.Millisecond}, front.URL, WorkerInfo{URL: "http://worker:1"}, t.Logf)
	defer m.Leave()
	waitUntil(t, 5*time.Second, "initial registration", func() bool {
		alive, _, _ := c1.reg.counts()
		return alive == 1
	})

	// "Restart": a fresh coordinator with an empty registry takes over the
	// same address.
	c2 := mk()
	current.Store(c2)
	waitUntil(t, 5*time.Second, "re-registration with the restarted coordinator", func() bool {
		alive, _, _ := c2.reg.counts()
		return alive == 1
	})
}

// TestWorkerBeatsAtAdvertisedInterval: a worker joined without settings of
// its own beats at the interval its coordinator advertises at registration,
// so a coordinator at 100ms (suspect timeout 400ms) never declares it dead
// between beats.
func TestWorkerBeatsAtAdvertisedInterval(t *testing.T) {
	coord, ts := newTestCoordinator(t, Config{HeartbeatInterval: 100 * time.Millisecond})
	m := Join(&Client{}, ts.URL, WorkerInfo{URL: "http://worker:1"}, t.Logf)
	defer m.Leave()
	waitUntil(t, 5*time.Second, "registration", func() bool {
		alive, _, _ := coord.reg.counts()
		return alive == 1
	})
	walltime.Sleep(1500 * time.Millisecond)
	if alive, deaths, leaves := coord.reg.counts(); alive != 1 || deaths != 0 || leaves != 0 {
		t.Fatalf("alive/deaths/leaves = %d/%d/%d after 1.5s, want 1/0/0", alive, deaths, leaves)
	}
}

// TestRegistrationAcceptsWarmKeys: a worker built before routing became
// rendezvous alone sends the cell keys already in its cache. The decoder
// refuses unknown fields, so the coordinator must still accept the field,
// or such a worker would be refused on every registration and never join.
func TestRegistrationAcceptsWarmKeys(t *testing.T) {
	coord, ts := newTestCoordinator(t, Config{SuspectTimeout: time.Minute})
	resp, err := http.Post(ts.URL+"/v1/workers", "application/json", strings.NewReader(
		`{"url":"http://warmhost:1","cache_id":"warmhost:/cache","warm_keys":["cell-a","cell-b"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("registration with warm_keys: %d, want 201", resp.StatusCode)
	}
	if alive, _, _ := coord.reg.counts(); alive != 1 {
		t.Fatalf("alive = %d after registration, want 1", alive)
	}
}

// TestCoordinatorDrainRefusesWorkers: registrations during drain are 503 —
// the fleet is going away, workers should not be told to stick around.
func TestCoordinatorDrainRefusesWorkers(t *testing.T) {
	coord, err := New(Config{Suite: exp.NewSuite(exp.Small)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/workers", strings.NewReader(`{"url":"http://a:1"}`))
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("registration during drain = %d, want 503", rec.Code)
	}
}

// TestRefusedSubmissionKeepsWorker: callWorker condemns a worker only for a
// transport error. A worker that refuses the submission (503 while
// draining) or answers it with something other than a job descriptor is
// reachable, so the call fails and the worker stays alive; a worker whose
// listener is gone is condemned.
func TestRefusedSubmissionKeepsWorker(t *testing.T) {
	coord, ts := newTestCoordinator(t, Config{SuspectTimeout: time.Minute})
	call := func(url, cacheID string) (*worker, error) {
		t.Helper()
		id := registerHTTP(t, ts.URL, url, cacheID)
		coord.reg.mu.Lock()
		w := coord.reg.workers[id]
		coord.reg.mu.Unlock()
		_, err := coord.callWorker(w, "k", exp.CellSpec{Workload: "FFT"})
		return w, err
	}
	for i, answer := range []http.HandlerFunc{
		func(w http.ResponseWriter, r *http.Request) {
			server.WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		},
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, "not a job descriptor")
		},
	} {
		refusing := httptest.NewServer(answer)
		w, err := call(refusing.URL, fmt.Sprintf("refusing%d:/cache", i))
		refusing.Close()
		if err == nil || isDown(w) {
			t.Errorf("answer %d: err %v, worker down %v; want an error and the worker alive", i, err, isDown(w))
		}
	}
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	if w, err := call(gone.URL, "gone:/cache"); err == nil || !isDown(w) {
		t.Errorf("closed listener: err %v, worker down %v; want an error and the worker condemned", err, isDown(w))
	}
}

// TestRetryableAnswerIsAFailedAttempt: a worker whose result poll replies
// with something that is not an answer (a 502) has not completed the cell.
// The attempt fails, so fleet_cells_completed_total does not count it, and
// the coordinator places the cell on a healthy worker instead.
func TestRetryableAnswerIsAFailedAttempt(t *testing.T) {
	suite := exp.NewSuite(exp.Small)
	coord, ts := newTestCoordinator(t, Config{Suite: suite, SuspectTimeout: time.Minute, MaxDispatches: 2})
	badID := registerHTTP(t, ts.URL, failingWorker(t).URL, "bad:/cache")
	cell, err := suite.ResolveCell(exp.CellSpec{Workload: "FFT"})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := exp.SpecFromCell(cell)
	coord.reg.mu.Lock()
	bad := coord.reg.workers[badID]
	coord.reg.mu.Unlock()
	if res, err := coord.try(bad, cell.Key(), spec); err == nil {
		t.Fatalf("a 502 reply completed the dispatch: %+v", res)
	}

	goodID := registerHTTP(t, ts.URL, stubWorker(t).URL, "good:/cache")
	if res, ok := coord.remote(cell); !ok || res.Run == nil {
		t.Fatalf("remote(FFT) = %+v, %v; want the healthy worker's run", res, ok)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := parseScrape(t, body)
	if n := samples[`fleet_cells_completed_total{worker="`+badID+`"}`]; n != 0 {
		t.Errorf("fleet_cells_completed_total counts %v 502 replies from the failing worker", n)
	}
	if n := samples[`fleet_cells_completed_total{worker="`+goodID+`"}`]; n != 1 {
		t.Errorf("fleet_cells_completed_total{good} = %v, want 1", n)
	}
}

// TestOnlyWorkerIsForgiven: when every alive worker has failed a cell once,
// remote forgives them and places the cell again rather than fall back
// while workers live. The only worker replies 502 to its first result poll
// and then serves the cell.
func TestOnlyWorkerIsForgiven(t *testing.T) {
	suite := exp.NewSuite(exp.Small)
	coord, ts := newTestCoordinator(t, Config{Suite: suite, SuspectTimeout: time.Minute, MaxDispatches: 2})
	backend := stubWorker(t)
	var polls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && polls.Add(1) == 1 {
			http.Error(w, "bad gateway", http.StatusBadGateway)
			return
		}
		backend.Config.Handler.ServeHTTP(w, r)
	}))
	defer flaky.Close()
	id := registerHTTP(t, ts.URL, flaky.URL, "flaky:/cache")
	cell, err := suite.ResolveCell(exp.CellSpec{Workload: "FFT"})
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := coord.remote(cell); !ok || res.Run == nil {
		t.Fatalf("remote(FFT) = %+v, %v; want the worker's run on its second attempt", res, ok)
	}
	for series, want := range map[string]float64{
		"fleet_jobs_redispatched_total":                     1,
		"fleet_local_fallbacks_total":                       0,
		`fleet_cells_dispatched_total{worker="` + id + `"}`: 2,
		`fleet_cells_completed_total{worker="` + id + `"}`:  1,
	} {
		if got := metricValue(t, ts.URL, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestWorkerVerdictIsFinal: a worker's answer is the cell's verdict, even a
// failed one. A worker that answers a cell with a panic envelope gets the
// cell once, and remote returns that answer: no other worker is tried, and
// the coordinator does not simulate the cell itself.
func TestWorkerVerdictIsFinal(t *testing.T) {
	suite := exp.NewSuite(exp.Small)
	coord, ts := newTestCoordinator(t, Config{Suite: suite, SuspectTimeout: time.Minute})
	var submissions atomic.Int64
	panicking := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			submissions.Add(1)
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"id":"j1","kind":"cell","key":"k","status":"queued"}`)
			return
		}
		server.WriteError(w, http.StatusInternalServerError, "panic", "FFT on p16: thread p0 panicked: boom")
	}))
	defer panicking.Close()
	registerHTTP(t, ts.URL, panicking.URL, "panicking:/cache")
	cell, err := suite.ResolveCell(exp.CellSpec{Workload: "FFT"})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := coord.remote(cell)
	if !ok || res.ErrKind != "panic" || res.Run != nil {
		t.Fatalf("remote(FFT) = %+v, %v; want the worker's panic verdict", res, ok)
	}
	if n := submissions.Load(); n != 1 {
		t.Errorf("the worker got %d submissions, want 1", n)
	}
	for _, series := range []string{"fleet_jobs_redispatched_total", "fleet_local_fallbacks_total"} {
		if got := metricValue(t, ts.URL, series); got != 0 {
			t.Errorf("%s = %v, want 0", series, got)
		}
	}
}
