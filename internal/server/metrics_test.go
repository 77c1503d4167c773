package server

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"svmsim"
	"svmsim/internal/exp"
	"svmsim/internal/twin"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// stubRemote answers cells the way a fleet worker would, without simulating:
// a fixed run whose cycles shrink with the processor count (so the twin's
// base and uniprocessor anchors differ). Ocean cells fail with a typed
// kind; a workload named in holds waits for its channel to close.
func stubRemote(holds map[string]chan struct{}) func(exp.Cell) (exp.CellResult, bool) {
	return func(c exp.Cell) (exp.CellResult, bool) {
		if c.W.Name == "Ocean" {
			return exp.CellResult{Schema: exp.SchemaVersion, Key: c.Key(), ErrKind: "stall", Err: "Ocean stalled"}, true
		}
		if hold, ok := holds[c.W.Name]; ok {
			<-hold
		}
		run := svmsim.RunStats{Procs: make([]svmsim.ProcStats, c.Cfg.Procs), Cycles: uint64(16_000_000 / c.Cfg.Procs)}
		return exp.CellResult{Schema: exp.SchemaVersion, Key: c.Key(), Run: &run}, true
	}
}

// serve runs one request through the daemon's handler.
func serve(s *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// checkGolden compares got with testdata/name, or rewrites it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "<none>"
		}
		t.Fatalf("%s differs from the golden file at line %d:\ngot   %s\nwant  %s", name, i+1, line(g), line(w))
	}
}

// TestDaemonScrapeGolden pins the daemon's /metrics bytes with the twin
// endpoints on: every family's name, HELP and TYPE lines, label name, and
// sample order, after a fixed sequence of events that moves every series.
// No cell simulates (stubRemote answers them), and the latency histogram is
// fed through the suite's Observe hook with fixed durations.
func TestDaemonScrapeGolden(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, wl := range []string{"FFT", "LU"} {
		raw, _ := json.Marshal(exp.CellSpec{Workload: wl})
		if err := jn.append(journalRecord{Op: opAccept, ID: "j" + string(rune('1'+i)), Kind: "cell", Key: "stale", Spec: raw}); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()

	hold, hold2 := make(chan struct{}), make(chan struct{})
	defer close(hold)
	suite := testSuite()
	suite.Remote = stubRemote(map[string]chan struct{}{"Water-nsq": hold, "Water-sp": hold2})
	s, err := New(Config{
		Suite: suite, Twin: twin.New(), Workers: 1, QueueDepth: 1, JournalDir: dir,
		JobDeadline: time.Second, MaxAttempts: 2, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, "j1")
	waitTerminal(t, s, "j2")

	mustCode := func(rec *httptest.ResponseRecorder, want int) *httptest.ResponseRecorder {
		t.Helper()
		if rec.Code != want {
			t.Fatalf("status %d, want %d: %s", rec.Code, want, rec.Body)
		}
		return rec
	}
	// A store hit on the replayed FFT cell, a fresh cell, a sweep and a
	// failing cell.
	mustCode(serve(s, "POST", "/v1/cells", `{"workload":"FFT"}`), 200)
	waitTerminal(t, s, jobID(t, mustCode(serve(s, "POST", "/v1/cells", `{"workload":"Radix"}`), 202)))
	waitTerminal(t, s, jobID(t, mustCode(serve(s, "POST", "/v1/sweeps", `{"param":"interrupt","apps":["FFT"]}`), 202)))
	waitTerminal(t, s, jobID(t, mustCode(serve(s, "POST", "/v1/cells", `{"workload":"Ocean"}`), 202)))

	// A held cell times out twice and is quarantined. Meanwhile one cell
	// fills the queue (the replayed jobs have left it, so they widen it no
	// more), a resubmission coalesces, and a second cell is 429.
	held := jobID(t, mustCode(serve(s, "POST", "/v1/cells", `{"workload":"Water-nsq"}`), 202))
	waitInflight(t, s, 1)
	queued := jobID(t, mustCode(serve(s, "POST", "/v1/cells", `{"workload":"Barnes-reb"}`), 202))
	mustCode(serve(s, "POST", "/v1/cells", `{"workload":"Barnes-reb"}`), 200)
	mustCode(serve(s, "POST", "/v1/cells", `{"workload":"Volrend"}`), 429)
	if v := waitTerminal(t, s, held); v.Status != statusQuarantined {
		t.Fatalf("held job: %+v, want quarantined", v)
	}
	waitTerminal(t, s, queued)

	// One twin prediction (calibrating the FFT base model from two stub
	// anchors) and fixed-duration cell events for the histogram.
	mustCode(serve(s, "POST", "/v1/twin/predict", `{"workload":"FFT"}`), 200)
	for _, ev := range []exp.CellEvent{
		{Source: exp.SourceSim, Seconds: 0.0005},
		{Source: exp.SourceSim, Seconds: 0.005},
		{Source: exp.SourceSim, Seconds: 0.75},
		{Source: exp.SourceSim, Seconds: 61},
		{Source: exp.SourceDisk},
		{Source: exp.SourceFlight},
		{Source: exp.SourceDisk},
	} {
		suite.Observe(ev)
	}

	// Leave one job running and one queued behind it, then start a drain
	// and have it refuse a submission.
	mustCode(serve(s, "POST", "/v1/cells", `{"workload":"Water-sp"}`), 202)
	waitInflight(t, s, 1)
	mustCode(serve(s, "POST", "/v1/cells", `{"workload":"Barnes-sp"}`), 202)
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for serve(s, "GET", "/readyz", "").Code != http.StatusServiceUnavailable {
		time.Sleep(time.Millisecond)
	}
	mustCode(serve(s, "POST", "/v1/cells", `{"workload":"Radix","procs":8}`), 503)

	scrape := mustCode(serve(s, "GET", "/metrics", ""), 200)
	close(hold2)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "daemon_scrape.golden", scrape.Body.Bytes())
}
