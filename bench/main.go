// Command svmbench is the repository's benchmark. It runs one of four seeded
// workloads against the simulator, checks every output against golden
// digests, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) ending with one JSON result line. See README.md.
//
//	bash bench/run.sh --workload sim-sync --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -write-golden
//	bash bench/run.sh compare -parent 'p/*.json' -change 'c/*.json'
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"svmsim"
)

// workload is one set of inputs the benchmark runs. A run is split into
// rounds, each a child process that sets up once and then runs seeded
// passes over the inputs.
type workload struct {
	name string
	why  string
	// passSeconds is one pass's duration on the reference host (2-core
	// Xeon); it turns -seconds into a pass count, so every commit does the
	// same work.
	passSeconds float64
	// processPerPass gives each pass a fresh process: the pass consumes its
	// inputs (cold cells), and its retained simulations (about 1 GB) would
	// otherwise be re-touched by the next pass's allocations.
	processPerPass bool
	open           func(r *round) (session, error)
}

var workloads = []*workload{
	{name: "sim-sync", passSeconds: 0.42, open: openSim("hlrc", "Barnes-reb", "Water-sp", "Water-nsq", "Raytrace", "Volrend"),
		why: "lock- and interrupt-dense apps under HLRC; short runs, so per-run set-up weighs most"},
	{name: "sim-bulk", passSeconds: 0.8, open: openSim("aurc", "FFT", "LU", "Ocean", "Radix", "Barnes-sp"),
		why: "data-heavy apps under AURC with few interrupts; host time goes to memsys and the update write path"},
	{name: "sweep", passSeconds: 10, processPerPass: true, open: openSweep,
		why: "the researcher's path: Figures 5, 10, 12, 14 on one parallel exp.Suite with memo sharing"},
	{name: "serve", passSeconds: 13, processPerPass: true, open: openServe,
		why: "the served path: svmsimd over loopback, cold cells, warm store hits and twin predictions"},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// childEnv carries a round's spec to the child process that runs it.
const childEnv = "SVMBENCH_ROUND"

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("svmbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sim-sync, sim-bulk, sweep or serve")
	seed := fs.Uint64("seed", 1, "seed that orders the workload's fixed inputs")
	seconds := fs.Int("seconds", 15, "measured seconds the run is sized for on the reference host")
	trace := fs.Int("trace", 0, "1 runs traced rounds after untraced ones and prints the per-layer metrics")
	ops := fs.Int("ops", 0, "if positive, stop each round after this many timed ops (smoke runs)")
	out := fs.String("out", "", "also write the full report, host included, to this file")
	writeGolden := fs.Bool("write-golden", false, "record every output digest into bench/golden.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden {
		if err := recordGolden("bench/golden.json"); err != nil {
			fmt.Fprintln(os.Stderr, "svmbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "svmbench: need -workload (sim-sync, sim-bulk, sweep or serve), -seconds >= 1 and -trace 0 or 1\n")
		return 2
	}
	rep, err := run(w, *seed, *seconds, *ops, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svmbench:", err)
		return 1
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svmbench:", err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "svmbench:", err)
			return 1
		}
	}
	fmt.Println(string(data))
	fmt.Println(resultLine(rep))
	return 0
}

// report is one run of one workload: what the result line says plus the
// host, the seed and every metric's sample count. compare reads these.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Start     time.Time              `json:"start"`
	Host      host                   `json:"host"`
	Rounds    int                    `json:"rounds"`
	Passes    int                    `json:"passes"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// plan splits a run of about `seconds` into rounds, returning each round's
// pass count.
func plan(w *workload, seconds int) []int {
	passes := max(1, int(math.Round(float64(seconds)/w.passSeconds)))
	if w.processPerPass {
		rounds := make([]int, passes)
		for i := range rounds {
			rounds[i] = 1
		}
		return rounds
	}
	rounds := make([]int, min(3, passes))
	for i := 0; i < passes; i++ {
		rounds[i%len(rounds)]++
	}
	return rounds
}

// minSetups is how many set-ups an untraced run times, so that setup_s is a
// median. Sweep and serve rounds hold one pass each, so a run of theirs adds
// rounds that only set up and close.
const minSetups = 3

// run measures one workload. With trace, the untraced rounds only supply the
// baseline for trace.overhead_ratio and the metrics come from traced rounds.
func run(w *workload, seed uint64, seconds, ops int, trace bool) (*report, error) {
	rep := &report{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Start: time.Now(),
		Host: readHost(), Metrics: map[string]metricValue{}}
	fmt.Printf("svmbench %s seed=%d seconds=%d trace=%v: %s\n", w.name, seed, seconds, trace, w.why)
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		rep.Host.CPU, rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.Go, rep.Host.Commit)
	rounds := plan(w, seconds)
	measure := func(traced bool) (*aggregate, error) {
		var reps []*roundReport
		for i, passes := range rounds {
			rr, err := runChild(roundSpec{Workload: w.name, Seed: seed, Round: i, Passes: passes, OpsCap: ops, Trace: traced})
			if err != nil {
				return nil, err
			}
			fmt.Printf("round %d/%d traced=%v: set-up %.3f s, %d ops in %.3f s, %d failed\n",
				i+1, len(rounds), traced, rr.SetupS, rr.Ops, rr.WallS, rr.Failed)
			reps = append(reps, rr)
			rep.Passes += passes
		}
		a := aggregateRounds(reps)
		for i := len(reps); !trace && len(a.setupS) < minSetups; i++ {
			rr, err := runChild(roundSpec{Workload: w.name, Seed: seed, Round: i})
			if err != nil {
				return nil, err
			}
			fmt.Printf("set-up only: %.3f s\n", rr.SetupS)
			a.setupS = append(a.setupS, rr.SetupS)
		}
		rep.Rounds += a.rounds
		rep.Attempted += a.ops
		rep.Failed += a.failed
		return a, nil
	}
	a, err := measure(false)
	if err != nil {
		return nil, err
	}
	metrics := endToEnd
	if trace {
		plain := div(float64(a.ops), a.wallS)
		if a, err = measure(true); err != nil {
			return nil, err
		}
		a.overhead = div(plain, div(float64(a.ops), a.wallS))
		metrics = perLayer
		fmt.Printf("trace: spans and CPU profiles in %s\n", traceDir(w.name))
	}
	for _, m := range metrics {
		rd := m.read(a)
		rep.Metrics[m.name] = metricValue{rd.value, m.unit, rd.n}
		note := ""
		if rd.n > 0 && rd.beyond >= 0 && rd.beyond < minBeyond {
			note = fmt.Sprintf("  (only %d samples beyond this percentile)", rd.beyond)
		}
		if m.moves != "" {
			note += "  moves: " + m.moves
		}
		fmt.Printf("%-28s %14.6g %-10s n=%d%s\n", m.name, rd.value, m.unit, rd.n, note)
	}
	if trace {
		if share := attributedShare(a).value; share < 0.95 {
			fmt.Printf("warning: layers cover only %.1f%% of profile samples\n", share*100)
		}
	}
	return rep, nil
}

// resultLine renders the final line: correctness, op counts and each metric
// with its unit.
func resultLine(rep *report) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0 && rep.Attempted > 0, rep.Attempted, rep.Failed, map[string]value{}}
	for k, m := range rep.Metrics {
		res.Metrics[k] = value{m.Value, m.Unit}
	}
	data, _ := json.Marshal(res) // plain structs of finite floats
	return string(data)
}

// runChild runs one round in a child process of this binary, so that each
// round's peak RSS is its own and no round inherits another's heap.
func runChild(spec roundSpec) (*roundReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(data))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// The child dies with this process rather than outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s round %d: %w", spec.Workload, spec.Round, err)
	}
	var rep roundReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s round %d report: %w", spec.Workload, spec.Round, err)
	}
	return &rep, nil
}

// childMain runs the round described by spec and prints its report.
func childMain(spec string) int {
	var rs roundSpec
	if err := json.Unmarshal([]byte(spec), &rs); err != nil {
		fmt.Fprintln(os.Stderr, "svmbench: round spec:", err)
		return 2
	}
	g := newRecorder()
	if !rs.Record {
		var err error
		if g, err = loadGolden(goldenJSON); err != nil {
			fmt.Fprintln(os.Stderr, "svmbench:", err)
			return 1
		}
	}
	rep, err := runRound(rs, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svmbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "svmbench:", err)
		return 1
	}
	return 0
}

// fftBaseCycles is the simulated time of FFT on the achievable baseline, the
// repository's fixed point.
const fftBaseCycles = 3641567

// recordGolden runs one pass of every workload with a recording golden set
// and writes the digests to path.
func recordGolden(path string) error {
	res, err := svmsim.Run(svmsim.Achievable(), svmsim.FFT(svmsim.FFTSmall()))
	if err != nil {
		return err
	}
	if res.Run.Cycles != fftBaseCycles {
		return fmt.Errorf("FFT base cell reads %d cycles, want %d: refusing to record goldens", res.Run.Cycles, fftBaseCycles)
	}
	all := map[string]string{}
	for _, w := range workloads {
		rr, err := runChild(roundSpec{Workload: w.name, Seed: 1, Passes: 1, Record: true})
		if err != nil {
			return err
		}
		if rr.Failed > 0 {
			return fmt.Errorf("%s: %d ops failed while recording", w.name, rr.Failed)
		}
		for k, v := range rr.Golden {
			if old, ok := all[k]; ok && old != v {
				return fmt.Errorf("%s: %q differs between workloads", w.name, k)
			}
			all[k] = v
		}
		fmt.Printf("%s: %d digests\n", w.name, len(rr.Golden))
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("writing %d digests to %s\n", len(all), path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// host identifies the machine and build a report was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readHost() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: gitCommit()}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitCommit reads the checked-out commit from .git in the working directory,
// or "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}
