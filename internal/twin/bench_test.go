package twin

import (
	"testing"

	"svmsim"
	"svmsim/internal/exp"
)

// benchTwin calibrates one FFT model on the fast topology for the
// microbenchmarks (the calibration simulations run once, outside the timed
// region).
func benchTwin(tb testing.TB) (*Twin, *exp.Suite) {
	tb.Helper()
	s := exp.NewSuite(exp.Small)
	s.Procs = 4
	s.PPN = 2
	s.Parallelism = 4
	w, err := exp.WorkloadByName("FFT")
	if err != nil {
		tb.Fatal(err)
	}
	tw := New()
	if _, err := tw.Calibrate(s, w, svmsim.HLRC, CommAxes...); err != nil {
		tb.Fatal(err)
	}
	return tw, s
}

// interpCell is an in-range, off-anchor cell: the prediction hot path with
// genuine interpolation work, not an anchor shortcut.
func interpCell(tb testing.TB, s *exp.Suite) exp.Cell {
	tb.Helper()
	w, err := exp.WorkloadByName("FFT")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := s.Base()
	cfg.IntrHalfCostCycles = 2000
	cfg.Net.HostOverheadCycles = 200
	return exp.Cell{Cfg: cfg, W: w}
}

// BenchmarkTwinPredict measures the prediction hot path: what a ~100ms
// simulation costs when answered by the calibrated model instead. The
// ISSUE's contract is microsecond-scale and zero allocations per op.
func BenchmarkTwinPredict(b *testing.B) {
	tw, s := benchTwin(b)
	c := interpCell(b, s)
	if _, err := tw.Predict(c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tw.Predict(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwinOptimize measures a full parameter-space optimization: an
// exhaustive scan of the 840 studied communication-parameter combinations.
func BenchmarkTwinOptimize(b *testing.B) {
	tw, _ := benchTwin(b)
	spec := OptimizeSpec{Workload: "FFT", MinSpeedup: 1}
	if _, err := tw.Optimize(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tw.Optimize(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPredictZeroAllocs enforces the benchmark contract in the ordinary
// test run: the prediction hot path allocates nothing.
func TestPredictZeroAllocs(t *testing.T) {
	tw, s := benchTwin(t)
	c := interpCell(t, s)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := tw.Predict(c); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Predict allocates %.1f objects/op, want 0", allocs)
	}
}
