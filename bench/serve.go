package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svmsim"
	"svmsim/internal/exp"
	"svmsim/internal/server"
	"svmsim/internal/twin"
)

const (
	// clients is the number of closed-loop clients: each sends its next
	// request only after the previous reply, like `sweep -remote`.
	clients = 2
	// serverWorkers is server.New's default worker pool, used as is.
	serverWorkers = 2
	// warmRepeats and predictRepeats size a pass's cheap requests so each
	// class has over 1,000 samples across two passes (enough for a p99),
	// while the ~190 cold requests stay about 15% of the mix, so op_ms_p50
	// and op_ms_p75 land on cheap requests, which wait on the simulations'
	// CPU contention.
	warmRepeats    = 28 // × 20 warm cells
	predictRepeats = 16 // × 35 predictions
)

// twinApps are the workloads whose interrupt-axis twin model set-up
// calibrates and the predict requests query.
var twinApps = []string{"FFT", "Ocean", "Water-sp", "Raytrace", "Barnes-reb"}

// serveFigures supply the cold pool: their non-uniprocessor cells that
// set-up did not already simulate.
var serveFigures = []string{"Figure 5", "Figure 7", "Figure 8", "Figure 10", "Figure 12"}

// request is one call a client makes. Cold and warm requests submit a cell
// and fetch its result; predict requests ask the twin.
type request struct {
	class  string // "fill", "cold", "warm" or "predict"
	spec   exp.CellSpec
	key    string // the cell's content key (cell requests)
	golden string // golden key of the response body
}

// serveSession drives an in-process svmsimd over loopback: journal on, twin
// on, default workers.
type serveSession struct {
	r       *round
	suite   *exp.Suite
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	journal string
	reqs    []request
	timing  atomic.Bool

	mu     sync.Mutex
	seen   map[string]exp.CellEvent // latest suite event per cell key
	spanOf map[string]int64         // cold cell key -> its request's span
}

// openServe starts the server, calibrates the twin through its predict
// endpoint, fills the warm pool, and builds the request list.
func openServe(r *round) (_ session, err error) {
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	journal, err := os.MkdirTemp(tmp, "serve-journal-")
	if err != nil {
		return nil, err
	}
	s := &serveSession{r: r, suite: exp.NewSuite(exp.Small), journal: journal,
		seen: map[string]exp.CellEvent{}, spanOf: map[string]int64{}}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.shutdown())
		}
	}()
	s.suite.Observe = s.observe
	if s.srv, err = server.New(server.Config{Suite: s.suite, JournalDir: journal, Twin: twin.New()}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Timeout: 2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

	var predicts, calibrate []request
	for _, app := range twinApps {
		for i, v := range exp.InterruptPoints {
			q := request{class: "predict", spec: exp.CellSpec{Workload: app, IntrHalfCostCycles: &v},
				golden: fmt.Sprintf("predict %s intr=%d", app, v)}
			predicts = append(predicts, q)
			if i == len(exp.InterruptPoints)/2 {
				calibrate = append(calibrate, q)
			}
		}
	}
	start := time.Now()
	if err := s.runAll(calibrate); err != nil {
		return nil, fmt.Errorf("calibrating the twin: %w", err)
	}
	r.add("twin.calibrate_s", time.Since(start).Seconds())

	var warmSpecs []exp.CellSpec
	for _, mode := range []string{"hlrc", "aurc"} {
		for _, w := range svmsim.Workloads() {
			warmSpecs = append(warmSpecs, exp.CellSpec{Workload: w.Name, Mode: mode})
		}
	}
	warmCells, err := resolveAll(s.suite, warmSpecs)
	if err != nil {
		return nil, err
	}
	var warm, fill []request
	for _, c := range warmCells {
		warm = append(warm, cellRequest("warm", c))
		fill = append(fill, cellRequest("fill", c))
	}
	if err := s.runAll(fill); err != nil {
		return nil, fmt.Errorf("filling the warm pool: %w", err)
	}

	var specs []exp.CellSpec
	for _, f := range serveFigures {
		specs = append(specs, figureSpecs(f)...)
	}
	cold, err := resolveAll(s.suite, specs)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	for _, c := range cold {
		if _, touched := s.seen[c.cell.Key()]; !touched && !c.spec.Uniprocessor {
			s.reqs = append(s.reqs, cellRequest("cold", c))
		}
	}
	s.mu.Unlock()
	for i := 0; i < warmRepeats; i++ {
		s.reqs = append(s.reqs, warm...)
	}
	for i := 0; i < predictRepeats; i++ {
		s.reqs = append(s.reqs, predicts...)
	}
	return s, nil
}

// cellRequest submits a cell: "fill" (set-up) and "cold" requests expect a
// fresh admission, "warm" ones a store hit.
func cellRequest(class string, c resolved) request {
	return request{class: class, spec: c.spec, key: c.cell.Key(), golden: "cell " + c.cell.Key()}
}

// pass sends the seeded request list through the clients. The cold pool is
// spent after one pass, so a serve round runs exactly one.
func (s *serveSession) pass(p int) error {
	r := s.r
	list := shuffled(s.reqs, r.spec.Seed, r.spec.Round, p)
	s.timing.Store(true)
	defer s.timing.Store(false)
	start := time.Now()
	err := s.runAll(list)
	r.add("exp.worker_s", time.Since(start).Seconds()*serverWorkers)
	return err
}

// runAll sends requests through the closed-loop clients. Inside the timed
// region each request is an op and a failure counts against the round;
// during set-up the first failure is returned.
func (s *serveSession) runAll(reqs []request) error {
	timed := s.timing.Load()
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || (timed && !s.r.begin()) {
					return
				}
				if err := s.do(reqs[i], timed); err != nil {
					if timed {
						s.r.fail("%s %s: %v", reqs[i].class, reqs[i].golden, err)
					} else if errs[c] == nil {
						errs[c] = err
					}
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// do sends one request, times it, and checks the reply.
func (s *serveSession) do(q request, timed bool) error {
	r := s.r
	op := r.trace.id()
	start := time.Now()
	var body []byte
	var err error
	if q.class == "predict" {
		body, err = s.call(op, "predict", "/v1/twin/predict", q.spec, http.StatusOK)
	} else {
		body, err = s.cell(op, q, timed)
	}
	end := time.Now()
	r.trace.add(op, 0, op, "request "+q.class, start, end)
	if timed {
		r.sample("op_ms", ms(end.Sub(start)))
		r.sample("serve."+q.class+"_ms", ms(end.Sub(start)))
	}
	if err != nil {
		return err
	}
	if err := r.golden.check(q.golden, body); err != nil {
		return err
	}
	if q.class != "cold" || !timed {
		return nil
	}
	s.mu.Lock()
	ev, ok := s.seen[q.key]
	s.mu.Unlock()
	if !ok || ev.Source != exp.SourceSim {
		return fmt.Errorf("cold cell served from %v, not a fresh simulation", ev.Source)
	}
	r.sample("server.queue_ms", ms(end.Sub(start))-ev.Seconds*1e3)
	res, err := exp.DecodeCellResult(body)
	if err != nil {
		return err
	}
	addSimCounters(r, res.Run)
	return nil
}

// cell submits a cell (POST /v1/cells) and fetches its result document
// (GET /v1/jobs/{id}/result?wait=1). Cold and fill requests must be
// admitted fresh; warm ones must be store hits.
func (s *serveSession) cell(op int64, q request, timed bool) ([]byte, error) {
	want := http.StatusAccepted
	if q.class == "warm" {
		want = http.StatusOK
	} else {
		s.mu.Lock()
		s.spanOf[q.key] = op
		s.mu.Unlock()
	}
	start := time.Now()
	body, err := s.call(op, "admit", "/v1/cells", q.spec, want)
	if err != nil {
		return nil, err
	}
	if timed && q.class == "cold" {
		s.r.sample("server.admit_ms", ms(time.Since(start)))
	}
	var job struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &job); err != nil {
		return nil, fmt.Errorf("job reply: %w", err)
	}
	if job.Cached != (q.class == "warm") {
		return nil, fmt.Errorf("job %s cached=%v for a %s request", job.ID, job.Cached, q.class)
	}
	return s.call(op, "wait", "/v1/jobs/"+job.ID+"/result?wait=1", nil, http.StatusOK)
}

// call performs one HTTP exchange (a POST when spec is non-nil) as a child
// span of op and requires the given status.
func (s *serveSession) call(op int64, name, path string, spec any, want int) ([]byte, error) {
	start := time.Now()
	var req *http.Request
	var err error
	if spec != nil {
		data, merr := json.Marshal(spec)
		if merr != nil {
			return nil, merr
		}
		req, err = http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(data))
	} else {
		req, err = http.NewRequest(http.MethodGet, s.base+path, nil)
	}
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.r.trace.add(s.r.trace.id(), op, op, name, start, time.Now())
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s: status %d, want %d: %s", path, resp.StatusCode, want, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// observe receives every cell the server's suite serves: set-up and the
// timed region alike, so the cold pool can exclude what set-up touched.
func (s *serveSession) observe(ev exp.CellEvent) {
	s.mu.Lock()
	s.seen[ev.Key] = ev
	span := s.spanOf[ev.Key]
	s.mu.Unlock()
	if s.timing.Load() {
		countCell(s.r, ev, span)
	}
}

// close reads the server's own counters from /metrics, measures the heap
// the live server retains, then stops it.
func (s *serveSession) close() error {
	r := s.r
	body, err := s.call(0, "metrics", "/metrics", nil, http.StatusOK)
	if err != nil {
		return errors.Join(err, s.shutdown())
	}
	m := parseMetrics(body)
	r.add("server.store_hits", m[`svmsimd_cache_hits_total{layer="store"}`])
	r.add("server.cells_accepted", m[`svmsimd_jobs_accepted_total{kind="cell"}`])
	r.add("server.rejected", m["svmsimd_jobs_rejected_total"])
	r.add("twin.calibrations", m["svmsimd_twin_calibrations_total"])
	recordRetained(r)
	return s.shutdown()
}

// shutdown stops whatever openServe started: the HTTP listener, the
// server's workers (drained), the client's connections and the journal.
func (s *serveSession) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var err error
	if s.hs != nil {
		err = s.hs.Shutdown(ctx)
		if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}
	if s.srv != nil {
		err = errors.Join(err, s.srv.Drain(ctx))
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	return errors.Join(err, os.RemoveAll(s.journal))
}

// parseMetrics reads Prometheus text exposition into series -> value.
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
