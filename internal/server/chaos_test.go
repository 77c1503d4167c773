package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"svmsim/internal/exp"
)

// daemon is one running svmsimd subprocess under test.
type daemon struct {
	cmd *exec.Cmd
	url string
	// log collects the daemon's stderr lines; logDone closes once the
	// daemon has closed stderr and every line is in.
	log     []string
	logDone chan struct{}
}

// startDaemon launches the real svmsimd binary on an ephemeral port and
// scrapes the advertised address from its log line.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})

	lines := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.log = append(d.log, line)
			if rest, ok := strings.CutPrefix(line, "svmsimd: listening on "); ok {
				select {
				case lines <- rest:
				default:
				}
			}
		}
	}()
	select {
	case url := <-lines:
		d.url = url
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never advertised its listen address")
	}
	return d
}

// kill9 SIGKILLs the daemon — no drain, no journal close, no warning — and
// reaps it.
func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

// term SIGTERMs the daemon and requires a graceful drain: exit status 0
// and the clean-drain line as the last thing it logs.
func (d *daemon) term(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.logDone:
	case <-time.After(60 * time.Second):
		t.Fatal("daemon still running 60s after SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exited with %v after SIGTERM; log:\n%s", err, strings.Join(d.log, "\n"))
	}
	if n := len(d.log); n == 0 || d.log[n-1] != "svmsimd: drained cleanly" {
		t.Fatalf("no clean-drain line at the end of the log:\n%s", strings.Join(d.log, "\n"))
	}
}

// get fetches a URL path from the daemon, returning status and body.
func (d *daemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(d.url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// metricValue scrapes one un-labeled counter/gauge from /metrics.
func (d *daemon) metricValue(t *testing.T, name string) int {
	t.Helper()
	code, body := d.get(t, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				t.Fatalf("metric %s: parsing %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s absent:\n%s", name, body)
	return 0
}

// countCacheEntries counts committed disk-cache cells (completed renames
// only; temp files in flight do not count).
func countCacheEntries(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// TestChaosKill9: the full crash-safety contract against the real binary.
// A daemon accepts a sweep, is SIGKILLed mid-simulation, and is restarted
// against the same journal and cache directories. The restarted daemon must
// come ready, still know the job under its original ID, run it to
// completion warm (no cell simulated twice across the crash), and serve a
// result byte-identical to an uninterrupted in-process run. A third
// generation finds nothing to replay, serves the sweep from its caches,
// and drains cleanly on SIGTERM.
func TestChaosKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	// The in-process reference, same topology as the daemon flags below.
	ref := testSuite()
	refRes, err := ref.RunSweep(exp.SweepSpec{Param: "interrupt", Apps: []string{"FFT"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.EncodeSweepResult(refRes)
	if err != nil {
		t.Fatal(err)
	}
	totalCells := 8 // 7 interrupt points + the uniprocessor baseline

	bin := filepath.Join(t.TempDir(), "svmsimd")
	build := exec.Command("go", "build", "-o", bin, "svmsim/cmd/svmsimd")
	build.Dir = "../.." // repo root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building svmsimd: %v\n%s", err, out)
	}

	journalDir := filepath.Join(t.TempDir(), "journal")
	cacheDir := filepath.Join(t.TempDir(), "cache")
	args := []string{
		"-journal-dir", journalDir, "-cache-dir", cacheDir,
		"-size", "small", "-procs", "4", "-ppn", "2",
		"-parallel", "1", "-workers", "1",
	}

	d1 := startDaemon(t, bin, args...)
	if code, body := d1.get(t, "/readyz"); code != 200 {
		t.Fatalf("first daemon not ready: %d %s", code, body)
	}
	resp, err := http.Post(d1.url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"param":"interrupt","apps":["FFT"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 202 || !bytes.Contains(body, []byte(`"id":"j1"`)) {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}

	// Let the sweep make real progress, then pull the plug mid-flight.
	deadline := time.Now().Add(60 * time.Second)
	for d1.metricValue(t, "svmsimd_cells_simulated_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never simulated a cell")
		}
		time.Sleep(10 * time.Millisecond)
	}
	d1.kill9(t)
	cachedAtKill := countCacheEntries(t, cacheDir)

	d2 := startDaemon(t, bin, args...)
	for {
		if code, _ := d2.get(t, "/readyz"); code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The accepted job survived the kill under its original ID. (If the
	// sweep finished in the instant before the kill there is nothing to
	// replay — vanishingly unlikely at one worker, and a test failure here
	// is the right outcome: the kill landed too late to test anything.)
	if code, body := d2.get(t, "/v1/jobs/j1"); code != 200 {
		t.Fatalf("job j1 lost by the crash: %d %s", code, body)
	}
	if n := d2.metricValue(t, "svmsimd_jobs_replayed_total"); n != 1 {
		t.Fatalf("jobs_replayed_total = %d, want 1", n)
	}

	code, got := d2.get(t, "/v1/jobs/j1/result?wait=1")
	if code != 200 {
		t.Fatalf("replayed result: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-crash result diverges from uninterrupted run:\n%s\nvs\n%s", got, want)
	}

	// Warm restart: cells committed to the disk cache before the kill were
	// not simulated again.
	simsAfter := d2.metricValue(t, "svmsimd_cells_simulated_total")
	if simsAfter > totalCells-cachedAtKill {
		t.Fatalf("crash recovery re-simulated cached cells: %d sims after restart, %d were cached at kill",
			simsAfter, cachedAtKill)
	}

	// The journal is intact for a *third* generation: nothing incomplete
	// remains, and the store answer is already durable in the cell cache.
	d2.kill9(t)
	d3 := startDaemon(t, bin, args...)
	if n := d3.metricValue(t, "svmsimd_jobs_replayed_total"); n != 0 {
		t.Fatalf("finished job replayed after clean completion: %d", n)
	}
	resp3, err := http.Post(d3.url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"param":"interrupt","apps":["FFT"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != 202 && resp3.StatusCode != 200 {
		t.Fatalf("third-generation submit: %d %s", resp3.StatusCode, body3)
	}
	var v jobView
	if err := json.Unmarshal(body3, &v); err != nil {
		t.Fatal(err)
	}
	simsBefore3 := d3.metricValue(t, "svmsimd_cells_simulated_total")
	code3, got3 := d3.get(t, "/v1/jobs/"+v.ID+"/result?wait=1")
	if code3 != 200 || !bytes.Equal(got3, want) {
		t.Fatalf("third-generation result: %d\n%s", code3, got3)
	}
	if after := d3.metricValue(t, "svmsimd_cells_simulated_total"); after != simsBefore3 {
		t.Fatalf("fully cached sweep re-simulated %d cells", after-simsBefore3)
	}
	d3.term(t)
}
