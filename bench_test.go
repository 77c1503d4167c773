package svmsim_test

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark regenerates its experiment from scratch (workload runs,
// parameter sweep, and table rendering) and logs the rendered table; run
// with -v to see the reproduced numbers. EXPERIMENTS.md records a full set.
//
//	go test -bench=. -benchmem
//	go test -bench=Figure10 -v        # interrupt-cost sweep, with table

import (
	"runtime"
	"testing"

	"svmsim"
	"svmsim/internal/exp"
)

// benchExperiment runs one experiment per iteration on a fresh suite.
func benchExperiment(b *testing.B, f func(s *exp.Suite) (*exp.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(exp.Small)
		tbl, err := f(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkFigure1_IdealVsAchievable regenerates the motivating ideal vs
// achievable speedup comparison.
func BenchmarkFigure1_IdealVsAchievable(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure1() })
}

// BenchmarkTable2_ProtocolEvents regenerates the protocol-event
// characterization at 1/4/8 processors per node.
func BenchmarkTable2_ProtocolEvents(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Table2() })
}

// BenchmarkFigure3_MessagesSent regenerates messages per processor per 1M
// compute cycles.
func BenchmarkFigure3_MessagesSent(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure3() })
}

// BenchmarkFigure4_BytesSent regenerates MBytes per processor per 1M compute
// cycles.
func BenchmarkFigure4_BytesSent(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure4() })
}

// BenchmarkTable3_MaxSlowdowns regenerates the per-parameter maximum
// slowdown summary.
func BenchmarkTable3_MaxSlowdowns(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Table3() })
}

// BenchmarkFigure5_HostOverhead regenerates the host-overhead sweep.
func BenchmarkFigure5_HostOverhead(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure5() })
}

// BenchmarkFigure6_OverheadVsMessages regenerates the overhead-slowdown vs
// message-count correlation.
func BenchmarkFigure6_OverheadVsMessages(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure6() })
}

// BenchmarkFigure7_NIOccupancy regenerates the HLRC occupancy sweep.
func BenchmarkFigure7_NIOccupancy(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure7() })
}

// BenchmarkFigure8_IOBandwidth regenerates the I/O-bandwidth sweep.
func BenchmarkFigure8_IOBandwidth(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure8() })
}

// BenchmarkFigure9_BandwidthVsBytes regenerates the bandwidth-slowdown vs
// bytes-sent correlation.
func BenchmarkFigure9_BandwidthVsBytes(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure9() })
}

// BenchmarkFigure10_InterruptCost regenerates the interrupt-cost sweep (the
// paper's headline result).
func BenchmarkFigure10_InterruptCost(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure10() })
}

// BenchmarkFigure11_InterruptVsFetches regenerates the interrupt-slowdown vs
// (page fetches + remote lock acquires) correlation.
func BenchmarkFigure11_InterruptVsFetches(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure11() })
}

// BenchmarkFigure12_AURCOccupancy regenerates the AURC occupancy sweep
// (where occupancy matters much more).
func BenchmarkFigure12_AURCOccupancy(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure12() })
}

// BenchmarkTable4_BestAchievableIdeal regenerates the best / achievable /
// ideal speedups.
func BenchmarkTable4_BestAchievableIdeal(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Table4() })
}

// BenchmarkFigure13_PageSize regenerates the page-size sweep.
func BenchmarkFigure13_PageSize(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure13() })
}

// BenchmarkFigure14_Clustering regenerates the degree-of-clustering sweep.
func BenchmarkFigure14_Clustering(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Figure14() })
}

// BenchmarkInterruptVariants regenerates the Section-6 variants:
// uniprocessor-node sensitivity and round-robin interrupt delivery.
func BenchmarkInterruptVariants(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.InterruptVariants() })
}

// BenchmarkAllLocalAblation regenerates the Section-7 analysis ablation
// (remote page fetches artificially disabled).
func BenchmarkAllLocalAblation(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.AllLocalAblation() })
}

// BenchmarkSingleRun measures the raw simulation throughput of one
// achievable-configuration FFT run (events through the engine, protocol and
// memory system). Besides host time it reports the engine's
// machine-independent work counters, which repeat exactly on any host.
func BenchmarkSingleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := svmsim.Run(svmsim.Achievable(), svmsim.FFT(svmsim.FFTSmall()))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Run.Cycles), "simcycles/op")
		c := res.World.Sys.Sim.Counts()
		b.ReportMetric(float64(c.Events), "events/op")
		b.ReportMetric(float64(c.Threads), "threads/op")
		b.ReportMetric(float64(c.Carriers), "carriers/op")
	}
}

// BenchmarkSuiteParallel runs a representative sweep bundle (host overhead,
// interrupt cost and clustering: the cells behind Figures 5, 10 and 14)
// through the parallel Runner at full GOMAXPROCS fan-out. Compare against
// BenchmarkSuiteSerial for the multi-core speedup.
func BenchmarkSuiteParallel(b *testing.B) {
	benchSuiteFigures(b, runtime.GOMAXPROCS(0))
}

// BenchmarkSuiteSerial runs the same sweep bundle strictly serially.
func BenchmarkSuiteSerial(b *testing.B) {
	benchSuiteFigures(b, 1)
}

func benchSuiteFigures(b *testing.B, parallelism int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(exp.Small)
		s.Parallelism = parallelism
		for _, f := range []func() (*exp.Table, error){s.Figure5, s.Figure10, s.Figure14} {
			if _, err := f(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtensions regenerates the interrupt-avoidance and bandwidth
// extension study (the paper's Discussion/Future Work directions: polling,
// dedicated protocol processors, NI-served fetches, multiple NIs).
func BenchmarkExtensions(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Extensions() })
}

// BenchmarkMicrobench regenerates the synthetic sharing-pattern
// characterization (HLRC vs AURC on producer-consumer, migratory, false
// sharing, all-to-all, hot lock and read-mostly traffic).
func BenchmarkMicrobench(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Microbench() })
}

// BenchmarkBreakdown regenerates the per-application time breakdown behind
// the paper's Section-7 analysis.
func BenchmarkBreakdown(b *testing.B) {
	benchExperiment(b, func(s *exp.Suite) (*exp.Table, error) { return s.Breakdown() })
}
