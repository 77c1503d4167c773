package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"svmsim"
	"svmsim/internal/exp"
)

// TestMain lets the test binary stand in for svmbench when the smoke test
// runs rounds in child processes.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 90, 90, 10},
		{99, 90, 90, 9},
		{100, 50, 50, 50},
		{1, 99, 1, 0},
	} {
		v, beyond := percentile(xs[:c.n], c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..%d, %v) = %v with %d beyond, want %v with %d", c.n, c.p, v, beyond, c.want, c.wantBeyond)
		}
		if ok := beyond >= minBeyond; ok != (c.wantBeyond >= 10) {
			t.Errorf("n=%d p%v: rule satisfied = %v", c.n, c.p, ok)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestSeedOnlyOrders checks that a seed fixes the request order, and that
// other seeds permute the same requests.
func TestSeedOnlyOrders(t *testing.T) {
	var reqs []string
	for _, f := range serveFigures {
		for _, s := range figureSpecs(f) {
			data, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, string(data))
		}
	}
	a, b := shuffled(reqs, 7, 0, 0), shuffled(reqs, 7, 0, 0)
	if !slices.Equal(a, b) {
		t.Fatal("seed 7 gave two different request lists")
	}
	c := shuffled(reqs, 8, 0, 0)
	if slices.Equal(a, c) {
		t.Fatal("seeds 7 and 8 gave the same order")
	}
	slices.Sort(a)
	slices.Sort(c)
	if !slices.Equal(a, c) {
		t.Fatal("seeds 7 and 8 gave different request multisets")
	}
}

func TestAttribution(t *testing.T) {
	stacks := [][]string{
		{"runtime.memclrNoHeapPointers", "svmsim/internal/node.New", "svmsim/internal/machine.Run"},
		{"svmsim/internal/apps/fft.transpose", "svmsim/internal/shm.(*Proc).Read"},
		{"runtime.gcBgMarkWorker"},
		{"main.(*serveSession).do", "net/http.(*Client).Do"},
		{"svmsim/internal/engine.(*Sim).switchTo", "svmsim/internal/engine.(*Sim).Run"},
	}
	got := attribute(stacks, []int64{10, 20, 30, 40, 50})
	want := map[string]float64{
		"self_ns.node": 10, "self_ns.apps": 20, "self_ns.runtime": 70, "self_ns.engine": 50,
		"self_ns.total": 150, "self_samples": 5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
}

// TestProfileDecoding attributes a real CPU profile of a simulation: every
// sample is charged to exactly one layer, and the engine's share is found.
func TestProfileDecoding(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		if _, err := svmsim.Run(svmsim.Achievable(), svmsim.FFT(svmsim.FFTSmall())); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	self, err := attributeProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if self["self_samples"] < 5 {
		t.Fatalf("only %v samples decoded", self["self_samples"])
	}
	var layers float64
	for k, v := range self {
		if strings.HasPrefix(k, "self_ns.") && k != "self_ns.total" {
			layers += v
		}
	}
	if layers != self["self_ns.total"] {
		t.Errorf("layers sum to %v ns of %v", layers, self["self_ns.total"])
	}
	if self["self_ns.engine"] == 0 {
		t.Errorf("no samples attributed to the engine: %v", self)
	}
}

// TestFFTBaseGolden pins the repository's fixed point: FFT on the
// achievable baseline runs 3,641,567 cycles, and its golden digest matches.
func TestFFTBaseGolden(t *testing.T) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	c, err := exp.NewSuite(exp.Small).ResolveCell(exp.CellSpec{Workload: "FFT"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svmsim.Run(c.Cfg, c.W.Small())
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Cycles != fftBaseCycles {
		t.Errorf("FFT base cell: %d cycles, want %d", res.Run.Cycles, fftBaseCycles)
	}
	doc, err := cellDoc(c.Key(), res.Run)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.check("cell "+c.Key(), doc); err != nil {
		t.Error(err)
	}
}

// TestTamperedGoldenFails runs one sim-sync pass against the golden set with
// one entry altered: exactly that op fails.
func TestTamperedGoldenFails(t *testing.T) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	c, err := exp.NewSuite(exp.Small).ResolveCell(exp.CellSpec{Workload: "Raytrace"})
	if err != nil {
		t.Fatal(err)
	}
	key := "cell " + c.Key()
	if _, ok := g.sums[key]; !ok {
		t.Fatalf("no golden entry %q", key)
	}
	g.sums[key] = strings.Repeat("0", 64)
	rep, err := runRound(roundSpec{Workload: "sim-sync", Seed: 1, Passes: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 5 || rep.Failed != 1 {
		t.Fatalf("tampered golden: %d ops, %d failed; want 5 ops, 1 failed", rep.Ops, rep.Failed)
	}
}

// TestSmoke runs every workload briefly through the orchestrator and child
// processes, and sim-bulk once traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations for several seconds")
	}
	for _, c := range []struct {
		workload string
		ops      int
		trace    bool
	}{
		{"sim-sync", 2, false},
		{"sim-bulk", 2, true},
		{"sweep", 1, false},
		{"serve", 6, false},
	} {
		w, _ := workloadByName(c.workload)
		rep, err := run(w, 1, 1, c.ops, c.trace)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", c.workload, rep.Failed, rep.Attempted)
		}
		want := endToEnd
		if c.trace {
			want = perLayer
		}
		for _, m := range want {
			if _, ok := rep.Metrics[m.name]; !ok {
				t.Errorf("%s: metric %s missing", c.workload, m.name)
			}
		}
	}
}

func TestCompareRules(t *testing.T) {
	start := time.Unix(0, 0)
	mk := func(i int, v float64) *report {
		return &report{Workload: "w", Start: start.Add(time.Duration(i) * time.Second),
			Metrics: map[string]metricValue{"op_ms_p50": {Value: v}}}
	}
	pairs := func(pv, cv func(i int) float64) (map[string][]*report, map[string][]*report) {
		p, c := map[string][]*report{}, map[string][]*report{}
		for i := 0; i < 10; i++ {
			p["w"] = append(p["w"], mk(2*i, pv(i)))
			c["w"] = append(c["w"], mk(2*i+1, cv(i)))
		}
		return p, c
	}
	finding := func(p, c map[string][]*report) string {
		for _, v := range compareReports(p, c) {
			if v.metric == "op_ms_p50" {
				return v.finding
			}
		}
		return ""
	}
	jitter := func(i int) float64 { return float64(i%3) * 0.1 }
	for _, tc := range []struct {
		name   string
		pv, cv func(i int) float64
		want   string
	}{
		{"faster in every pair", func(i int) float64 { return 10 + jitter(i) }, func(i int) float64 { return 9 + jitter(i) }, "gain"},
		{"within the bound", func(i int) float64 { return 10 + jitter(i) }, func(i int) float64 { return 10.2 + jitter(i) }, "unchanged"},
		{"slower than the bound", func(i int) float64 { return 10 + jitter(i) }, func(i int) float64 { return 13 + jitter(i) }, "regression"},
		{"spread wider than the bound", func(i int) float64 { return 10 + float64(i%2)*4 }, func(i int) float64 { return 10 + float64(i%2)*4 }, "unresolved"},
	} {
		if got := finding(pairs(tc.pv, tc.cv)); got != tc.want {
			t.Errorf("%s: finding %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the workloads and metric
// catalogue defined here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: %+v, want %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			g, m := got[i], want[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.bound) {
				t.Errorf("%s %d: %+v does not match %s (%s, %s, bound %v)", kind, i, g, m.name, m.unit, m.better, m.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
