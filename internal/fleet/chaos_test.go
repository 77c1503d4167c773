package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"svmsim/internal/exp"
)

// buildSvmsimd compiles the real daemon binary into the test's temp dir.
func buildSvmsimd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "svmsimd")
	build := exec.Command("go", "build", "-o", bin, "svmsim/cmd/svmsimd")
	build.Dir = "../.." // repo root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building svmsimd: %v\n%s", err, out)
	}
	return bin
}

// chaosDaemon is one svmsimd subprocess (coordinator or worker) under test.
type chaosDaemon struct {
	cmd *exec.Cmd
	url string

	mu     sync.Mutex
	stderr []string
}

// dumpLog replays the daemon's captured stderr into the test log — the
// post-mortem for a failed chaos assertion.
func (d *chaosDaemon) dumpLog(t *testing.T, name string) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, line := range d.stderr {
		t.Logf("%s: %s", name, line)
	}
}

// startChaos launches svmsimd with the given flags and scrapes the
// advertised URL from its log. addr may be "127.0.0.1:0" for ephemeral.
func startChaos(t *testing.T, bin, addr string, args ...string) *chaosDaemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &chaosDaemon{cmd: cmd}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if len(d.stderr) < 1000 {
				d.stderr = append(d.stderr, line)
			}
			d.mu.Unlock()
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

// kill9 SIGKILLs the process — no drain, no goodbye — and reaps it.
func (d *chaosDaemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

func (d *chaosDaemon) get(t *testing.T, path string) (int, []byte) {
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

// metric scrapes one un-labeled sample from /metrics.
func (d *chaosDaemon) metric(t *testing.T, name string) int {
	t.Helper()
	return int(sampleOf(t, d.scrape(t), name))
}

// labeledMetric scrapes the per-worker samples of one labeled counter, e.g.
// fleet_cells_dispatched_total{worker="w1"} 3 -> {"w1": 3}.
func (d *chaosDaemon) labeledMetric(t *testing.T, name string) map[string]int {
	t.Helper()
	out := map[string]int{}
	for series, v := range d.scrape(t) {
		rest, ok := strings.CutPrefix(series, name+`{worker="`)
		if id, ok2 := strings.CutSuffix(rest, `"}`); ok && ok2 {
			out[id] = int(v)
		}
	}
	return out
}

// scrape fetches and parses /metrics.
func (d *chaosDaemon) scrape(t *testing.T) map[string]float64 {
	t.Helper()
	code, body := d.get(t, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	return parseScrape(t, body)
}

// fleetWorkers decodes GET /v1/workers from the coordinator.
func (d *chaosDaemon) fleetWorkers(t *testing.T) []workerView {
	t.Helper()
	code, body := d.get(t, "/v1/workers")
	if code != 200 {
		t.Fatalf("/v1/workers: %d %s", code, body)
	}
	var resp struct {
		Workers []workerView `json:"workers"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding /v1/workers: %v\n%s", err, body)
	}
	return resp.Workers
}

// referenceSweep runs the chaos sweep spec in-process: the byte-identity
// oracle for everything the fleet serves. Same topology as the daemon flags
// in the tests below (-size small -procs 4 -ppn 2).
func referenceSweep(t *testing.T) []byte {
	t.Helper()
	s := exp.NewSuite(exp.Small)
	s.Procs = 4
	s.PPN = 2
	s.Parallelism = 1
	res, err := s.RunSweep(exp.SweepSpec{Param: "interrupt", Apps: []string{"FFT"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

const chaosTotalCells = 8 // 7 interrupt points + the uniprocessor baseline

var chaosSuiteArgs = []string{"-size", "small", "-procs", "4", "-ppn", "2"}

// TestChaosWorkerKill9 is the headline fleet failure drill: three real
// workers serve a sweep through a real coordinator, one worker is SIGKILLed
// with cells in flight, and the sweep must still complete byte-identical to
// an uninterrupted local run. Only the dead worker's incomplete cells may be
// re-dispatched (redispatched == dispatched-to-victim − completed-by-victim)
// and the death is counted exactly once.
func TestChaosWorkerKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemons")
	}
	want := referenceSweep(t)
	bin := buildSvmsimd(t)

	coordArgs := append([]string{
		"-coordinator", "-parallel", "3",
		"-hb-interval", "100ms",
	}, chaosSuiteArgs...)
	coord := startChaos(t, bin, "127.0.0.1:0", coordArgs...)

	workers := make([]*chaosDaemon, 3)
	for i := range workers {
		workerArgs := append([]string{
			"-join", coord.url,
			"-parallel", "1", "-workers", "1",
			"-cache-dir", filepath.Join(t.TempDir(), "cache"),
		}, chaosSuiteArgs...)
		workers[i] = startChaos(t, bin, "127.0.0.1:0", workerArgs...)
	}
	deadline := time.Now().Add(120 * time.Second)
	for coord.metric(t, "fleet_workers") < 3 {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(coord.url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"param":"interrupt","apps":["FFT"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}

	// Wait for a worker with a dispatch in flight, then pull its plug.
	var victimID string
	for victimID == "" {
		if time.Now().After(deadline) {
			t.Fatal("no worker ever had a cell in flight")
		}
		dispatched := coord.labeledMetric(t, "fleet_cells_dispatched_total")
		completed := coord.labeledMetric(t, "fleet_cells_completed_total")
		for id, n := range dispatched {
			if n-completed[id] >= 1 {
				victimID = id
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	var victim *chaosDaemon
	for _, v := range coord.fleetWorkers(t) {
		if v.ID != victimID {
			continue
		}
		for _, w := range workers {
			if w.url == v.URL {
				victim = w
			}
		}
	}
	if victim == nil {
		t.Fatalf("victim %s has no matching worker process", victimID)
	}
	victim.kill9(t)

	code, got := coord.get(t, "/v1/jobs/j1/result?wait=1")
	if code != 200 {
		t.Fatalf("sweep after worker kill: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-kill sweep diverges from uninterrupted run:\n%s\nvs\n%s", got, want)
	}

	// Exactly one death, no graceful leaves, no local fallback: the fleet
	// absorbed the kill without the coordinator simulating anything.
	if n := coord.metric(t, "fleet_worker_deaths_total"); n != 1 {
		t.Fatalf("fleet_worker_deaths_total = %d, want exactly 1", n)
	}
	if n := coord.metric(t, "fleet_local_fallbacks_total"); n != 0 {
		t.Fatalf("fleet_local_fallbacks_total = %d, want 0", n)
	}

	// Re-dispatch accounting: precisely the victim's incomplete cells moved,
	// nothing else. (Final counters — the victim's are frozen by the kill.)
	dispatched := coord.labeledMetric(t, "fleet_cells_dispatched_total")
	completed := coord.labeledMetric(t, "fleet_cells_completed_total")
	lost := dispatched[victimID] - completed[victimID]
	if lost < 1 {
		t.Fatalf("victim %s had nothing in flight at the kill (dispatched %d, completed %d)",
			victimID, dispatched[victimID], completed[victimID])
	}
	if n := coord.metric(t, "fleet_jobs_redispatched_total"); n != lost {
		t.Fatalf("fleet_jobs_redispatched_total = %d, want %d (the victim's incomplete cells)", n, lost)
	}

	// Every cell simulated exactly once on the survivors plus whatever the
	// victim completed: no warm cell was re-simulated anywhere.
	survivorSims := 0
	for _, w := range workers {
		if w != victim {
			survivorSims += w.metric(t, "svmsimd_cells_simulated_total")
		}
	}
	if wantSims := chaosTotalCells - completed[victimID]; survivorSims != wantSims {
		t.Fatalf("survivors simulated %d cells, want %d (%d total − %d completed by the victim)",
			survivorSims, wantSims, chaosTotalCells, completed[victimID])
	}
}

// TestChaosCoordinatorKill9: the coordinator itself is SIGKILLed mid-sweep
// and restarted on the same journal directory and address. The accepted
// sweep must replay, the workers re-register on their next heartbeat, every
// cell a worker finished before the kill goes back to that worker by
// rendezvous and is served from its disk cache (total worker simulations
// stay exactly chaosTotalCells), and the final document is byte-identical.
func TestChaosCoordinatorKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemons")
	}
	want := referenceSweep(t)
	bin := buildSvmsimd(t)

	// The coordinator needs a stable address across the restart so workers
	// re-find it: reserve an ephemeral port and reuse it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coordAddr := ln.Addr().String()
	ln.Close()

	journalDir := filepath.Join(t.TempDir(), "journal")
	coordArgs := append([]string{
		"-coordinator", "-parallel", "1", "-journal-dir", journalDir,
		"-hb-interval", "100ms",
	}, chaosSuiteArgs...)
	coord := startChaos(t, bin, coordAddr, coordArgs...)

	// Two workers, one cell in flight at a time: rendezvous on the workers'
	// cache identities, which a restart changes on neither side, sends each
	// cell to the same home before and after the kill. So completed cells
	// are disk hits, and the single in-flight cell coalesces with its
	// still-running worker job (idempotent submission by content key) —
	// total simulations stay exactly chaosTotalCells.
	workers := make([]*chaosDaemon, 2)
	for i := range workers {
		workerArgs := append([]string{
			"-join", coord.url,
			"-parallel", "1", "-workers", "1",
			"-cache-dir", filepath.Join(t.TempDir(), "cache"),
		}, chaosSuiteArgs...)
		workers[i] = startChaos(t, bin, "127.0.0.1:0", workerArgs...)
	}
	deadline := time.Now().Add(120 * time.Second)
	for coord.metric(t, "fleet_workers") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(coord.url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"param":"interrupt","apps":["FFT"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 202 || !bytes.Contains(body, []byte(`"id":"j1"`)) {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}

	// Let the fleet make real progress, then kill the brain.
	workerSims := func() int {
		n := 0
		for _, w := range workers {
			n += w.metric(t, "svmsimd_cells_simulated_total")
		}
		return n
	}
	for workerSims() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("fleet never simulated a cell")
		}
		time.Sleep(10 * time.Millisecond)
	}
	coord.kill9(t)

	coord2 := startChaos(t, bin, coordAddr, coordArgs...)
	for {
		if code, _ := coord2.get(t, "/readyz"); code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted coordinator never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The accepted sweep survived under its original ID and was replayed.
	if code, body := coord2.get(t, "/v1/jobs/j1"); code != 200 {
		t.Fatalf("job j1 lost by the coordinator crash: %d %s", code, body)
	}
	if n := coord2.metric(t, "svmsimd_jobs_replayed_total"); n != 1 {
		t.Fatalf("jobs_replayed_total = %d, want 1", n)
	}

	code, got := coord2.get(t, "/v1/jobs/j1/result?wait=1")
	if code != 200 {
		t.Fatalf("replayed sweep: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-crash sweep diverges from uninterrupted run:\n%s\nvs\n%s", got, want)
	}

	// The crash cost zero re-simulation: cells finished before the kill are
	// disk hits on their original workers, so the fleet-wide simulation
	// count lands exactly on the cell count.
	if n := workerSims(); n != chaosTotalCells {
		for i, w := range workers {
			w.dumpLog(t, fmt.Sprintf("worker%d(%s)", i, w.url))
			t.Logf("worker%d sims=%d", i, w.metric(t, "svmsimd_cells_simulated_total"))
		}
		coord2.dumpLog(t, "coord2")
		t.Logf("coord2 dispatched=%v completed=%v",
			coord2.labeledMetric(t, "fleet_cells_dispatched_total"),
			coord2.labeledMetric(t, "fleet_cells_completed_total"))
		t.Fatalf("fleet simulated %d cells across the coordinator restart, want exactly %d", n, chaosTotalCells)
	}
	if n := coord2.metric(t, "fleet_local_fallbacks_total"); n != 0 {
		t.Fatalf("fleet_local_fallbacks_total = %d, want 0", n)
	}
}
