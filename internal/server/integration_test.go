package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"svmsim/internal/exp"
)

// postJSON submits one spec and returns the HTTP status and parsed job view.
func postJSON(t *testing.T, client *http.Client, url string, body string) (int, jobView) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	if resp.StatusCode == 200 || resp.StatusCode == 202 {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("parsing job view %q: %v", data, err)
		}
	}
	return resp.StatusCode, v
}

// fetchResult blocks on the result endpoint until the job finishes and
// returns the canonical document bytes.
func fetchResult(t *testing.T, client *http.Client, base, id string) []byte {
	t.Helper()
	resp, err := client.Get(base + "/v1/jobs/" + id + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("result for %s: %d %s", id, resp.StatusCode, data)
	}
	return data
}

// TestDaemonEndToEnd: the daemon on an ephemeral port serves concurrent
// clients submitting the same sweep; every response is byte-identical to a
// serial in-process run of the same spec, and the shared suite simulated
// each unique cell exactly once.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a real sweep")
	}
	const spec = `{"param":"interrupt","apps":["FFT"]}`

	// Serial reference: a fresh suite running the same spec in-process.
	ref := testSuite()
	refRes, err := ref.RunSweep(exp.SweepSpec{Param: "interrupt", Apps: []string{"FFT"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.EncodeSweepResult(refRes)
	if err != nil {
		t.Fatal(err)
	}

	suite := testSuite()
	suite.Parallelism = 2
	s, err := New(Config{Suite: suite, Workers: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	var wg sync.WaitGroup
	results := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, v := postJSON(t, ts.Client(), ts.URL+"/v1/sweeps", spec)
			if code != 200 && code != 202 {
				t.Errorf("client %d: submit status %d", i, code)
				return
			}
			results[i] = fetchResult(t, ts.Client(), ts.URL, v.ID)
		}()
	}
	wg.Wait()
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Fatalf("client %d diverges from serial run:\n%s\nvs\n%s", i, got, want)
		}
	}

	// The suite deduplicated across clients: one simulation per unique cell
	// (7 interrupt points + the uniprocessor baseline), not per client.
	if sims := s.metrics.simulated.Value(); sims != 8 {
		t.Fatalf("concurrent clients re-simulated shared cells: %d sims", sims)
	}

	// A warm resubmission is a pure store hit: zero new simulations.
	before := s.metrics.simulated.Value()
	code, v := postJSON(t, ts.Client(), ts.URL+"/v1/sweeps", spec)
	if code != 200 || !v.Cached {
		t.Fatalf("warm resubmission not cached: %d %+v", code, v)
	}
	if s.metrics.simulated.Value() != before {
		t.Fatal("warm resubmission simulated")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonCellMatchesCLI: a cell served over HTTP is byte-identical to the
// canonical encoding the CLI's -json mode prints for the same spec.
func TestDaemonCellMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a real cell")
	}
	// Serial reference.
	ref := testSuite()
	cell, err := ref.ResolveCell(exp.CellSpec{Workload: "FFT"})
	if err != nil {
		t.Fatal(err)
	}
	run, runErr := ref.RunCell(cell)
	want, err := exp.EncodeCellResult(exp.NewCellResult(cell.Key(), run, runErr))
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Suite: testSuite()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, v := postJSON(t, ts.Client(), ts.URL+"/v1/cells", `{"workload":"FFT"}`)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	got := fetchResult(t, ts.Client(), ts.URL, v.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP result diverges from in-process encoding:\n%s\nvs\n%s", got, want)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonValidation: malformed and invalid submissions are structured
// 400s; unknown jobs are 404s.
func TestDaemonValidation(t *testing.T) {
	s, err := New(Config{Suite: testSuite()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		path, body string
	}{
		{"/v1/cells", `{"workload":"NoSuchApp"}`},
		{"/v1/cells", `{"workload":"FFT","mode":"tso"}`},
		{"/v1/cells", `{"workload":"FFT","procz":4}`},             // unknown field
		{"/v1/cells", `{"workload":"FFT","page_bytes":33554432}`}, // page > heap
		{"/v1/cells", `{not json`},
		{"/v1/sweeps", `{"param":"voltage"}`},
		{"/v1/sweeps", `{"param":"interrupt","apps":["Quake"]}`},
	}
	for _, c := range cases {
		resp, err := ts.Client().Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 || !strings.Contains(string(data), `"bad_request"`) {
			t.Errorf("POST %s %s: %d %s", c.path, c.body, resp.StatusCode, data)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown job: %d", resp.StatusCode)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonOverflowLosesNoAcceptedJob: a burst of distinct submissions
// against a one-slot queue splits into accepted and 429-rejected; every
// accepted job finishes with a servable result, and the tallies add up.
func TestDaemonOverflowLosesNoAcceptedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates real cells")
	}
	suite := testSuite()
	s, err := New(Config{Suite: suite, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const burst = 12
	var wg sync.WaitGroup
	codes := make([]int, burst)
	ids := make([]string, burst)
	for i := 0; i < burst; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Distinct cells: each submission sweeps a different overhead.
			body := fmt.Sprintf(`{"workload":"FFT","host_overhead_cycles":%d}`, i*100)
			codes[i], ids[i] = func() (int, string) {
				code, v := postJSON(t, ts.Client(), ts.URL+"/v1/cells", body)
				return code, v.ID
			}()
		}()
	}
	wg.Wait()

	accepted, rejected := 0, 0
	for i := 0; i < burst; i++ {
		switch codes[i] {
		case 202, 200:
			accepted++
			if data := fetchResult(t, ts.Client(), ts.URL, ids[i]); !bytes.Contains(data, []byte(`"run"`)) {
				t.Errorf("accepted job %s served no run: %s", ids[i], data)
			}
		case 429:
			rejected++
		default:
			t.Errorf("submission %d: unexpected status %d", i, codes[i])
		}
	}
	if accepted+rejected != burst {
		t.Fatalf("submissions unaccounted for: %d accepted + %d rejected != %d", accepted, rejected, burst)
	}
	if accepted == 0 {
		t.Fatal("burst produced zero accepted jobs")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
