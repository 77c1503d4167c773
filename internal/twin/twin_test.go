package twin

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"svmsim"
	"svmsim/internal/exp"
)

// smallSuite is the fast test topology: 4 processors in 2 nodes over the
// small problem sizes, matching the exp package's own unit-test scale.
func smallSuite(t *testing.T) *exp.Suite {
	t.Helper()
	s := exp.NewSuite(exp.Small)
	s.Procs = 4
	s.PPN = 2
	s.Parallelism = 4
	return s
}

func workload(t *testing.T, name string) svmsim.Workload {
	t.Helper()
	w, err := exp.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPredictAnchorsExact: the calibrated baseline, the uniprocessor cell
// and every single-axis anchor predict the measured simulation time exactly
// (Anchor set, CI zero), and an interior point interpolates with a nonzero
// confidence interval, bracketed by its neighboring anchors.
func TestPredictAnchorsExact(t *testing.T) {
	s := smallSuite(t)
	w := workload(t, "FFT")
	tw := New()
	m, err := tw.Calibrate(s, w, svmsim.HLRC, exp.AxisInterrupt)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline.
	base := exp.Cell{Cfg: s.Base(), W: w}
	baseRun, err := s.RunCell(base)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tw.Predict(base)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Anchor || p.RelCI != 0 || p.Cycles != baseRun.Cycles {
		t.Fatalf("baseline not anchor-exact: %+v (sim %d)", p, baseRun.Cycles)
	}

	// Uniprocessor.
	uni := exp.Cell{Cfg: svmsim.Uniprocessor(s.Base()), W: w}
	uniRun, err := s.RunCell(uni)
	if err != nil {
		t.Fatal(err)
	}
	p, err = tw.Predict(uni)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Anchor || p.Cycles != uniRun.Cycles || p.Speedup != 1 {
		t.Fatalf("uniprocessor not anchor-exact: %+v (sim %d)", p, uniRun.Cycles)
	}

	// A single-axis anchor away from baseline.
	cfg := s.Base()
	cfg.IntrHalfCostCycles = 10000
	anchor := exp.Cell{Cfg: cfg, W: w}
	anchorRun, err := s.RunCell(anchor)
	if err != nil {
		t.Fatal(err)
	}
	p, err = tw.Predict(anchor)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Anchor || p.RelCI != 0 || p.Cycles != anchorRun.Cycles {
		t.Fatalf("interrupt anchor not exact: %+v (sim %d)", p, anchorRun.Cycles)
	}

	// An interior point: interpolated, CI > 0, inside the bracketing anchors.
	cfg = s.Base()
	cfg.IntrHalfCostCycles = 2000 // between anchors 1000 and 10000
	p, err = tw.Predict(exp.Cell{Cfg: cfg, W: w})
	if err != nil {
		t.Fatal(err)
	}
	if p.Anchor || p.RelCI < ciFloor {
		t.Fatalf("interior point claimed anchor certainty: %+v", p)
	}
	lo, _, _, _ := m.axes[exp.AxisInterrupt].at(axisPos(exp.AxisInterrupt, 1000))
	hi, _, _, _ := m.axes[exp.AxisInterrupt].at(axisPos(exp.AxisInterrupt, 10000))
	if float64(p.Cycles) < lo || float64(p.Cycles) > hi {
		t.Fatalf("interpolation %d outside bracket [%g, %g]", p.Cycles, lo, hi)
	}
	if p.Speedup <= 0 || p.UniCycles != uniRun.Cycles {
		t.Fatalf("bad speedup bookkeeping: %+v", p)
	}
}

// TestPredictRejectsOutsideModel: every flavor of out-of-model request is a
// typed *UncalibratedError — never a guess — and the exp error taxonomy
// classifies it as deterministic.
func TestPredictRejectsOutsideModel(t *testing.T) {
	s := smallSuite(t)
	w := workload(t, "FFT")
	tw := New()
	if _, err := tw.Calibrate(s, w, svmsim.HLRC, exp.AxisInterrupt); err != nil {
		t.Fatal(err)
	}

	check := func(name string, c exp.Cell) {
		t.Helper()
		_, err := tw.Predict(c)
		var ue *UncalibratedError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: got %v, want *UncalibratedError", name, err)
		}
		if kind := exp.ErrKind(err); kind != "uncalibrated" {
			t.Fatalf("%s: kind %q, want uncalibrated", name, kind)
		}
	}

	// Unknown workload.
	check("workload", exp.Cell{Cfg: s.Base(), W: workload(t, "LU")})
	// Uncalibrated protocol.
	aurc := s.Base()
	aurc.Proto.Mode = svmsim.AURC
	check("protocol", exp.Cell{Cfg: aurc, W: w})
	// Deviation outside the modeled axes.
	rr := s.Base()
	rr.IntrPolicy = svmsim.IntrRoundRobin
	check("policy", exp.Cell{Cfg: rr, W: w})
	// Uncalibrated axis.
	occ := s.Base()
	occ.Net.NIOccupancyCycles = 1000
	check("axis", exp.Cell{Cfg: occ, W: w})
	// Outside the studied range.
	far := s.Base()
	far.IntrHalfCostCycles = 50000
	check("range", exp.Cell{Cfg: far, W: w})
}

// TestPredictCalibratingIsLazy: the serving entry point calibrates only
// what a request needs — base anchors for a baseline request, one axis for
// a single-parameter request — and answers repeats from the published
// model without re-calibrating.
func TestPredictCalibratingIsLazy(t *testing.T) {
	s := smallSuite(t)
	w := workload(t, "FFT")
	tw := New()

	base := exp.Cell{Cfg: s.Base(), W: w}
	if _, err := tw.PredictCalibrating(s, base); err != nil {
		t.Fatal(err)
	}
	if got := tw.Calibrations(); got != 1 {
		t.Fatalf("baseline request ran %d calibrations, want 1", got)
	}
	m, ok := tw.Model(w.Name, svmsim.HLRC)
	if !ok || len(m.CalibratedAxes()) != 0 {
		t.Fatalf("baseline request calibrated axes %v, want none", m.CalibratedAxes())
	}

	cfg := s.Base()
	cfg.IntrHalfCostCycles = 2000
	if _, err := tw.PredictCalibrating(s, exp.Cell{Cfg: cfg, W: w}); err != nil {
		t.Fatal(err)
	}
	if got := tw.Calibrations(); got != 2 {
		t.Fatalf("axis request ran %d calibrations, want 2", got)
	}
	m, _ = tw.Model(w.Name, svmsim.HLRC)
	if got := m.CalibratedAxes(); len(got) != 1 || got[0] != exp.AxisInterrupt {
		t.Fatalf("calibrated axes %v, want [interrupt]", got)
	}

	// A repeat on the same axis needs nothing new.
	cfg.IntrHalfCostCycles = 200
	if _, err := tw.PredictCalibrating(s, exp.Cell{Cfg: cfg, W: w}); err != nil {
		t.Fatal(err)
	}
	if got := tw.Calibrations(); got != 2 {
		t.Fatalf("repeat request re-calibrated (count %d)", got)
	}
}

// TestConcurrentCalibrationsKeepEveryAxis: two lazy calibrations of one
// workload on different axes that overlap in time both land in the
// published model, and each request is answered; the later publish does
// not drop the earlier one's axis.
func TestConcurrentCalibrationsKeepEveryAxis(t *testing.T) {
	s := smallSuite(t)
	w := workload(t, "FFT")
	tw := New()
	base := exp.Cell{Cfg: s.Base(), W: w}
	if _, err := tw.PredictCalibrating(s, base); err != nil {
		t.Fatal(err)
	}

	// Hold every anchor until both calibrations have asked for one, so both
	// build on the base-only model before either publishes; ok=false lets
	// the anchors simulate.
	axes := []exp.Axis{exp.AxisHostOverhead, exp.AxisInterrupt}
	var mu sync.Mutex
	var once sync.Once
	asked := map[exp.Axis]bool{}
	both := make(chan struct{})
	s.Answer = func(c exp.Cell) (exp.CellResult, bool) {
		mu.Lock()
		for _, a := range axes {
			if a.Value(&c.Cfg) != a.Value(&base.Cfg) {
				asked[a] = true
			}
		}
		if len(asked) == len(axes) {
			once.Do(func() { close(both) })
		}
		mu.Unlock()
		<-both
		return exp.CellResult{}, false
	}

	errs := make([]error, len(axes))
	var wg sync.WaitGroup
	for i, a := range axes {
		cfg := s.Base()
		a.Set(&cfg, 2000)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = tw.PredictCalibrating(s, exp.Cell{Cfg: cfg, W: w})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s request: %v", axes[i], err)
		}
	}
	m, _ := tw.Model(w.Name, svmsim.HLRC)
	if got := m.CalibratedAxes(); !slices.Equal(got, axes) {
		t.Fatalf("calibrated axes %v, want %v", got, axes)
	}
}

// TestCalibrationDeterminism: calibrating a fresh twin from the same disk
// cache yields byte-identical coefficients and simulates nothing — the
// persistent cache alone reproduces the model.
func TestCalibrationDeterminism(t *testing.T) {
	dir := t.TempDir()
	w := workload(t, "Radix")

	encode := func(observe func(exp.CellEvent)) []byte {
		s := smallSuite(t)
		s.CacheDir = dir
		s.Observe = observe
		tw := New()
		m, err := tw.Calibrate(s, w, svmsim.HLRC, exp.AxisInterrupt, exp.AxisIOBw)
		if err != nil {
			t.Fatal(err)
		}
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	first := encode(nil)
	sims := 0
	second := encode(func(ev exp.CellEvent) {
		if ev.Source == exp.SourceSim {
			sims++
		}
	})
	if sims != 0 {
		t.Fatalf("second calibration simulated %d cells; want 0 (disk cache)", sims)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("coefficients drifted across calibrations:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestOptimize: with no constraint the cheapest studied configuration wins
// (every parameter at its least aggressive value, cost 0); an impossible
// constraint is a typed *InfeasibleError carrying the best achievable
// speedup; a constraint just under that best is satisfied; and the whole
// search is deterministic.
func TestOptimize(t *testing.T) {
	s := smallSuite(t)
	w := workload(t, "FFT")
	tw := New()
	if _, err := tw.Calibrate(s, w, svmsim.HLRC, CommAxes...); err != nil {
		t.Fatal(err)
	}

	choice, err := tw.Optimize(OptimizeSpec{Workload: "FFT"})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Cost != 0 {
		t.Fatalf("unconstrained optimum cost %g, want 0 (cheapest hardware)", choice.Cost)
	}
	sp := choice.Spec
	if sp.HostOverheadCycles == nil || *sp.HostOverheadCycles != 5000 ||
		sp.NIOccupancyCycles == nil || *sp.NIOccupancyCycles != 2000 ||
		sp.IOBytesPerCycle == nil || *sp.IOBytesPerCycle != 0.2 ||
		sp.IntrHalfCostCycles == nil || *sp.IntrHalfCostCycles != 10000 {
		t.Fatalf("unconstrained optimum not the cheap extreme: %+v", sp)
	}
	if choice.Evaluated == 0 || len(choice.Sensitivities) < 4 {
		t.Fatalf("bookkeeping: evaluated=%d sensitivities=%d", choice.Evaluated, len(choice.Sensitivities))
	}
	for i := 1; i < len(choice.Sensitivities); i++ {
		if choice.Sensitivities[i].SlowdownPct > choice.Sensitivities[i-1].SlowdownPct {
			t.Fatalf("sensitivities not sorted: %+v", choice.Sensitivities)
		}
	}

	_, err = tw.Optimize(OptimizeSpec{Workload: "FFT", MinSpeedup: 1e9})
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("impossible constraint: got %v, want *InfeasibleError", err)
	}
	if inf.Best <= 0 {
		t.Fatalf("infeasible error lost the best achievable speedup: %+v", inf)
	}
	if kind := exp.ErrKind(err); kind != "infeasible" {
		t.Fatalf("infeasible classified %q", kind)
	}

	tight, err := tw.Optimize(OptimizeSpec{Workload: "FFT", MinSpeedup: inf.Best * 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Prediction.Speedup < inf.Best*0.999 {
		t.Fatalf("constraint violated: predicted %g < required %g", tight.Prediction.Speedup, inf.Best*0.999)
	}
	if tight.Cost <= choice.Cost {
		t.Fatalf("near-best constraint should cost more than unconstrained (%g vs %g)", tight.Cost, choice.Cost)
	}

	again, err := tw.Optimize(OptimizeSpec{Workload: "FFT", MinSpeedup: inf.Best * 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tight, again) {
		t.Fatalf("optimizer nondeterministic:\n%+v\nvs\n%+v", tight, again)
	}

	// The protocol reads the cell vocabulary: any case, empty for HLRC, and
	// an unknown spelling is an error in the twin's own words.
	for _, mode := range []string{"", "hlrc", "HLRC"} {
		if _, err := tw.Optimize(OptimizeSpec{Workload: "FFT", Mode: mode}); err != nil {
			t.Errorf("mode %q: %v", mode, err)
		}
	}
	var ue *UncalibratedError
	if _, err := tw.Optimize(OptimizeSpec{Workload: "FFT", Mode: "AURC"}); !errors.As(err, &ue) || ue.Mode != "aurc" {
		t.Errorf("uncalibrated AURC: %v, want *UncalibratedError naming aurc", err)
	}
	want := `twin: unknown protocol mode "foo" (want hlrc or aurc)`
	if _, err := tw.Optimize(OptimizeSpec{Workload: "FFT", Mode: "foo"}); err == nil || err.Error() != want {
		t.Errorf("mode foo: %v, want %s", err, want)
	}
	if _, err := tw.OptimizeCalibrating(s, OptimizeSpec{Workload: "FFT", Mode: "foo"}); err == nil || err.Error() != want {
		t.Errorf("calibrating, mode foo: %v, want %s", err, want)
	}
}

// TestShouldSimulate pins the twin-guided pruning decision rule.
func TestShouldSimulate(t *testing.T) {
	anchor := Prediction{Speedup: 4, Anchor: true}
	if anchor.ShouldSimulate(4, 0.05) || anchor.ShouldSimulate(0, 0) {
		t.Fatal("anchors are simulated truth; never re-simulate")
	}
	p := Prediction{Speedup: 4, RelCI: 0.1}
	if !p.ShouldSimulate(4.2, 0.05) {
		t.Fatal("CI [3.6, 4.4] straddles target 4.2: must simulate")
	}
	if p.ShouldSimulate(5, 0.05) {
		t.Fatal("target 5 clearly above CI: model decides")
	}
	if p.ShouldSimulate(3, 0.05) {
		t.Fatal("target 3 clearly below CI: model decides")
	}
	if !p.ShouldSimulate(0, 0.05) {
		t.Fatal("no target, CI 10% > eps 5%: must simulate")
	}
	if p.ShouldSimulate(0, 0.2) {
		t.Fatal("no target, CI 10% ≤ eps 20%: model decides")
	}
}

// TestPredictRunNeverAliasesAnchors: materialized predictions carry the
// request's topology and never alias a calibration anchor's cached run.
func TestPredictRunNeverAliasesAnchors(t *testing.T) {
	s := smallSuite(t)
	w := workload(t, "FFT")
	tw := New()
	if _, err := tw.Calibrate(s, w, svmsim.HLRC, exp.AxisInterrupt); err != nil {
		t.Fatal(err)
	}
	cfg := s.Base()
	cfg.IntrHalfCostCycles = 2000
	c := exp.Cell{Cfg: cfg, W: w}
	run, err := tw.PredictRun(c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tw.Predict(c)
	if err != nil {
		t.Fatal(err)
	}
	if run.Cycles != p.Cycles {
		t.Fatalf("materialized cycles %d != predicted %d", run.Cycles, p.Cycles)
	}
	if run.ProcsPerNode != cfg.ProcsPerNode || run.NodeCount != cfg.Procs/cfg.ProcsPerNode {
		t.Fatalf("topology not rewritten: %+v", run)
	}
	// Mutating the clone must not corrupt the model's anchors.
	before, _ := tw.Predict(c)
	run.Procs[0].PageFaults = 0
	run.Cycles = 1
	after, _ := tw.Predict(c)
	if before != after {
		t.Fatal("prediction changed after mutating a materialized run: anchor aliased")
	}
}
