package exp

import (
	"testing"

	"svmsim"
	"svmsim/internal/stats"
)

// TestCalibrationDump prints per-app speedups and time breakdowns at the
// achievable point; used to calibrate compute/communication ratios against
// the paper's regime. Skipped unless -run selects it explicitly... it is
// cheap enough to keep.
func TestCalibrationDump(t *testing.T) {
	s := NewSuite(Small)
	for _, w := range svmsim.Workloads() {
		runs, errs := s.RunCells([]Cell{{Cfg: svmsim.Uniprocessor(s.Base()), W: w}, {Cfg: s.Base(), W: w}})
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		if errs[1] != nil {
			t.Errorf("%s: %v", w.Name, errs[1])
			continue
		}
		uni, run := runs[0].Cycles, runs[1]
		sp := stats.ComputeSpeedups(uni, run)
		tot := float64(run.Sum(func(p *stats.Proc) uint64 { return p.Total() }))
		frac := func(k stats.TimeKind) float64 {
			return float64(run.Sum(func(p *stats.Proc) uint64 { return p.Time[k] })) / tot * 100
		}
		t.Logf("%-11s uni=%8.1fM ideal=%5.2f ach=%5.2f | comp=%4.1f%% stall=%4.1f%% data=%4.1f%% lock=%4.1f%% barr=%4.1f%% hand=%4.1f%% send=%4.1f%% diff=%4.1f%%",
			w.Name, float64(uni)/1e6, sp.Ideal, sp.Achievable,
			frac(stats.Compute), frac(stats.LocalStall), frac(stats.DataWait),
			frac(stats.LockWait), frac(stats.BarrierWait), frac(stats.HandlerSteal),
			frac(stats.SendOverhead), frac(stats.DiffTime))
	}
}
