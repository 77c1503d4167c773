package svmsim_test

import (
	"testing"

	"svmsim"
)

// BenchmarkSingleRun measures the raw simulation throughput of one
// achievable-configuration FFT run (events through the engine, protocol and
// memory system). Besides host time it reports the engine's
// machine-independent work counters, which repeat exactly on any host.
// `make bench-smoke` runs it once under a 16 MiB/op allocation budget;
// end-to-end measurement lives in bench/ (`bash bench/run.sh`).
func BenchmarkSingleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := svmsim.Run(svmsim.Achievable(), svmsim.FFT(svmsim.FFTSmall()))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Run.Cycles), "simcycles/op")
		c := res.World.Sys.Sim.Counts()
		b.ReportMetric(float64(c.Events), "events/op")
		b.ReportMetric(float64(c.Switches), "switches/op")
		b.ReportMetric(float64(c.Threads), "threads/op")
		b.ReportMetric(float64(c.Carriers), "carriers/op")
	}
}
