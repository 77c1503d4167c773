package fleet

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"svmsim"
	"svmsim/internal/exp"
	"svmsim/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// stubWorker is a real worker daemon whose suite answers every cell with a
// fixed run instead of simulating.
func stubWorker(t *testing.T) *httptest.Server {
	t.Helper()
	suite := exp.NewSuite(exp.Small)
	suite.Answer = func(c exp.Cell) (exp.CellResult, bool) {
		run := svmsim.RunStats{Procs: make([]svmsim.ProcStats, c.Cfg.Procs), Cycles: 1_000_000}
		return exp.CellResult{Schema: exp.SchemaVersion, Key: c.Key(), Run: &run}, true
	}
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
	return ts
}

// failingWorker accepts every cell and replies to its result poll with a
// 502, which is not an answer, as a broken proxy in front of a worker
// would.
func failingWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"id":"j1","kind":"cell","key":"k","status":"queued"}`)
			return
		}
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// scrapeIDs and scrapeTimes normalise what a coordinator scrape cannot
// repeat: worker IDs carry the process ID, and the dispatch-latency
// histogram's sum and finite buckets read wall time (its +Inf bucket and
// count do not, and stay pinned).
var (
	scrapeIDs   = regexp.MustCompile(`"(w\d+)-\d+\.\d+"`)
	scrapeTimes = regexp.MustCompile(`(?m)^(fleet_dispatch_latency_seconds_(?:sum|bucket\{le="[0-9.e+-]+"\})) \S+$`)
)

// TestCoordinatorScrapeGolden pins the coordinator's /metrics bytes: the
// daemon's series followed by the fleet's, every family's name, HELP and
// TYPE lines, label name and sample order. The fixed sequence below moves
// every fleet series through the real dispatch path, steered by rendezvous
// so each placement is known: no cell simulates.
func TestCoordinatorScrapeGolden(t *testing.T) {
	suite := exp.NewSuite(exp.Small)
	coord, ts := newTestCoordinator(t, Config{Suite: suite, SuspectTimeout: time.Minute, MaxDispatches: 2})

	workers := map[string]*worker{}
	for _, w := range []struct{ name, url string }{
		{"r1", failingWorker(t).URL},
		{"r2", failingWorker(t).URL},
		{"a", stubWorker(t).URL},
		{"b", stubWorker(t).URL},
		{"dead", "http://127.0.0.1:1"},
		{"gone", "http://gone:1"},
	} {
		id := registerHTTP(t, ts.URL, w.url, w.name+":/cache")
		coord.reg.mu.Lock()
		workers[w.name] = coord.reg.workers[id]
		coord.reg.mu.Unlock()
	}
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/workers/"+workers["gone"].id, nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("leave: %d %s", rec.Code, rec.Body)
	}
	coord.reg.condemn(workers["dead"])

	cell := func(wl string) exp.Cell {
		c, err := suite.ResolveCell(exp.CellSpec{Workload: wl})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Rendezvous over the alive workers r1, r2, a and b ranks b first for
	// Ocean, r1 then a for Water-nsq, and r1 then r2 for LU. So Ocean lands
	// on b, Water-nsq fails on r1 and is re-dispatched to a, and LU fails
	// on r1 and r2 and falls back.
	if _, ok := coord.remote(cell("Ocean")); !ok {
		t.Fatal("Ocean not placed")
	}
	if _, ok := coord.remote(cell("Water-nsq")); !ok {
		t.Fatal("Water-nsq not placed")
	}
	if _, ok := coord.remote(cell("LU")); ok {
		t.Fatal("LU placed; want a local fallback")
	}

	coord.reg.acquire(workers["a"])
	coord.reg.acquire(workers["a"])
	coord.reg.acquire(workers["b"])
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := scrapeIDs.ReplaceAll(body, []byte(`"$1"`))
	got = scrapeTimes.ReplaceAll(got, []byte("$1 <wall time>"))
	checkGolden(t, "coordinator_scrape.golden", got)
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
