package exp

import (
	"math"
	"strings"
	"testing"

	"svmsim"
)

// sharedSuite memoizes runs across all shape tests in this package. It runs
// with Parallelism > 1 so the package's tests (and `go test -race`) exercise
// the concurrent RunCells paths.
var sharedSuite = func() *Suite {
	s := NewSuite(Small)
	s.Parallelism = 4
	return s
}()

// speedup is uniprocessor/parallel time for w under cfg, the two cells run
// as one batch.
func speedup(s *Suite, cfg svmsim.Config, w svmsim.Workload) (float64, error) {
	runs, errs := s.RunCells([]Cell{{Cfg: svmsim.Uniprocessor(s.Base()), W: w}, {Cfg: cfg, W: w}})
	if err := FirstErr(errs); err != nil {
		return 0, err
	}
	return float64(runs[0].Cycles) / float64(runs[1].Cycles), nil
}

func TestFigure1ShapesAndRendering(t *testing.T) {
	s := sharedSuite
	tbl, err := s.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("%d rows, want 10 applications", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		ideal, ach := r.Values[0], r.Values[1]
		if math.IsNaN(ideal) || math.IsNaN(ach) {
			t.Fatalf("%s: NaN speedups", r.Name)
		}
		if ach <= 0 || ideal <= 0 {
			t.Fatalf("%s: nonpositive speedups %v", r.Name, r.Values)
		}
		if ach > ideal*1.2 {
			t.Errorf("%s: achievable %.2f exceeds ideal %.2f", r.Name, ach, ideal)
		}
		// The motivating gap of Figure 1: protocol/communication overheads
		// keep achievable well below ideal on an SVM cluster.
		if ach > 0.8*ideal {
			t.Errorf("%s: no ideal-achievable gap (%.2f vs %.2f)", r.Name, ach, ideal)
		}
	}
	out := tbl.String()
	if !strings.Contains(out, "FFT") || !strings.Contains(out, "Application") {
		t.Fatalf("rendering broken:\n%s", out)
	}
}

func TestTable2EventRates(t *testing.T) {
	s := sharedSuite
	tbl, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Barnes-rebuild must show remote lock activity at ppn=4 (column 10).
	if v := tbl.Get("Barnes-reb", 10); !(v > 0) {
		t.Errorf("Barnes-rebuild remote locks = %v, want > 0", v)
	}
	// LU has almost no lock activity.
	if v := tbl.Get("LU", 10); v > 1 {
		t.Errorf("LU remote lock rate %v unexpectedly high", v)
	}
	// Everyone uses barriers.
	for _, r := range tbl.Rows {
		if r.Values[12] == 0 && r.Values[13] == 0 {
			t.Errorf("%s: no barriers counted", r.Name)
		}
	}
	// Clustering reduces remote lock acquires (SMP optimization): summed
	// over apps, ppn=8 must beat ppn=1.
	var r1, r8 float64
	for _, r := range tbl.Rows {
		r1 += r.Values[9]
		r8 += r.Values[11]
	}
	if r8 >= r1 {
		t.Errorf("remote lock rate did not drop with clustering: ppn1=%.1f ppn8=%.1f", r1, r8)
	}
}

// TestPaperHeadlines encodes the paper's main findings as shape assertions
// on the reproduced experiments:
//  1. Interrupt cost is the dominant bottleneck: raising it from the
//     aggressive achievable value to commercial-OS territory slows every
//     application down.
//  2. Host overhead and NI occupancy are NOT critical at realistic values:
//     the achievable points sit close to the free points.
//  3. I/O bandwidth matters most for the bandwidth-bound applications.
func TestPaperHeadlines(t *testing.T) {
	s := sharedSuite

	speed := func(mod func(svmsim.Config) svmsim.Config, w svmsim.Workload) float64 {
		sp, err := speedup(s, mod(s.Base()), w)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	id := func(c svmsim.Config) svmsim.Config { return c }

	badIntr := 0
	for _, w := range apps() {
		base := speed(id, w)
		expensive := speed(func(c svmsim.Config) svmsim.Config { c.IntrHalfCostCycles = 10000; return c }, w)
		if expensive >= base {
			badIntr++
			t.Logf("%s: interrupt cost 10k/half did not hurt (%.2f -> %.2f)", w.Name, base, expensive)
		}
	}
	if badIntr > 0 {
		t.Errorf("interrupt cost failed to hurt %d/10 applications", badIntr)
	}

	// Realistic host overhead and occupancy are adequate: achievable vs
	// free differs by < 15% for at least 8 of 10 applications.
	okOvh, okOcc := 0, 0
	for _, w := range apps() {
		free := speed(func(c svmsim.Config) svmsim.Config { c.Net.HostOverheadCycles = 0; return c }, w)
		ach := speed(id, w)
		if ach >= 0.85*free {
			okOvh++
		}
		freeOcc := speed(func(c svmsim.Config) svmsim.Config { c.Net.NIOccupancyCycles = 0; return c }, w)
		if ach >= 0.85*freeOcc {
			okOcc++
		}
	}
	if okOvh < 8 {
		t.Errorf("host overhead at achievable values hurts too much (%d/10 ok)", okOvh)
	}
	if okOcc < 8 {
		t.Errorf("NI occupancy at achievable values hurts too much (%d/10 ok)", okOcc)
	}

	// Bandwidth-bound applications (paper: FFT, Radix, Barnes-rebuild) are
	// hit hardest by low I/O bandwidth.
	slowdown := func(w svmsim.Workload) float64 {
		hi := speed(func(c svmsim.Config) svmsim.Config { c.Net.IOBytesPerCycle = 2.0; return c }, w)
		lo := speed(func(c svmsim.Config) svmsim.Config { c.Net.IOBytesPerCycle = 0.2; return c }, w)
		return hi / lo
	}
	var bound, unbound []float64
	for _, w := range apps() {
		v := slowdown(w)
		switch w.Name {
		case "FFT", "Radix", "Barnes-reb":
			bound = append(bound, v)
		case "LU", "Water-nsq", "Ocean":
			unbound = append(unbound, v)
		}
	}
	avg := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	if avg(bound) <= avg(unbound) {
		t.Errorf("bandwidth sensitivity not concentrated in FFT/Radix/Barnes-rebuild: bound=%.2f unbound=%.2f",
			avg(bound), avg(unbound))
	}
}

// TestClusteringHelps checks Figure 14's direction: more processors per node
// improves speedup for most applications (hardware sharing and
// synchronization within the SMP).
func TestClusteringHelps(t *testing.T) {
	s := sharedSuite
	helped := 0
	for _, w := range apps() {
		cfg1 := s.Base()
		cfg1.ProcsPerNode = 1
		cfg8 := s.Base()
		cfg8.ProcsPerNode = 8
		s1, err := speedup(s, cfg1, w)
		if err != nil {
			t.Fatal(err)
		}
		s8, err := speedup(s, cfg8, w)
		if err != nil {
			t.Fatal(err)
		}
		if s8 > s1 {
			helped++
		} else {
			t.Logf("%s: clustering did not help (%.2f at ppn=1 vs %.2f at ppn=8)", w.Name, s1, s8)
		}
	}
	if helped < 8 {
		t.Errorf("clustering helped only %d/10 applications", helped)
	}
}

// TestBarnesSpaceBeatsRebuild checks the paper's restructuring result: the
// SVM-optimized Barnes (space) outperforms the locking version (rebuild).
func TestBarnesSpaceBeatsRebuild(t *testing.T) {
	s := sharedSuite
	var reb, sp float64
	for _, w := range apps() {
		v, err := speedup(s, s.Base(), w)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name == "Barnes-reb" {
			reb = v
		}
		if w.Name == "Barnes-sp" {
			sp = v
		}
	}
	if sp <= reb {
		t.Errorf("Barnes-space (%.2f) should beat Barnes-rebuild (%.2f)", sp, reb)
	}
}

func TestCorrelationFiguresNormalized(t *testing.T) {
	s := sharedSuite
	for _, f := range []func() (*Table, error){s.Figure6, s.Figure9, s.Figure11} {
		tbl, err := f()
		if err != nil {
			t.Fatal(err)
		}
		max0, max1 := 0.0, 0.0
		for _, r := range tbl.Rows {
			if r.Values[0] > max0 {
				max0 = r.Values[0]
			}
			if r.Values[1] > max1 {
				max1 = r.Values[1]
			}
		}
		if math.Abs(max0-1) > 1e-9 || math.Abs(max1-1) > 1e-9 {
			t.Errorf("%s: normalization broken (max %.3f, %.3f)", tbl.ID, max0, max1)
		}
	}
}
