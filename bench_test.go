package svmsim_test

import (
	"testing"

	"svmsim"
	"svmsim/internal/engine"
	"svmsim/internal/exp"
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
		reportWork(b, res)
	}
}

// BenchmarkSyncRun measures one Barnes-rebuild run under HLRC at the suite
// baseline, the most lock- and interrupt-dense of bench's sim-sync apps,
// with the same work counters as BenchmarkSingleRun. `make bench-smoke` runs
// it once under an allocation-count budget, which a request path that
// allocated per interrupt or per lock message again would exceed.
func BenchmarkSyncRun(b *testing.B) {
	c, err := exp.NewSuite(exp.Small).ResolveCell(exp.CellSpec{Workload: "Barnes-reb", Mode: "hlrc"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svmsim.Run(c.Cfg, c.W.Small())
		if err != nil {
			b.Fatal(err)
		}
		reportWork(b, res)
	}
}

// reportWork reports a run's simulated cycles and the engine's work
// counters.
func reportWork(b *testing.B, res *svmsim.Result) {
	b.ReportMetric(float64(res.Run.Cycles), "simcycles/op")
	c := res.World.Sys.Sim.Counts()
	b.ReportMetric(float64(c.Events), "events/op")
	b.ReportMetric(float64(c.Switches), "switches/op")
	b.ReportMetric(float64(c.Threads), "threads/op")
	b.ReportMetric(float64(c.Carriers), "carriers/op")
}

// TestBenchAppCounts pins the work counters of the ten apps bench/ runs, each
// under its bench protocol at the suite baseline (achievable parameters,
// small sizes): the five sim-sync apps under HLRC and the five sim-bulk apps
// under AURC. Cycles and events are the schedule; switches, threads and
// carriers are what the engine paid for it. All five repeat exactly on any
// host, so a change to thread handling shows here as a count.
func TestBenchAppCounts(t *testing.T) {
	suite := exp.NewSuite(exp.Small)
	for _, tc := range []struct {
		app, mode string
		cycles    uint64
		want      engine.Counts
	}{
		{"Barnes-reb", "hlrc", 14916672, engine.Counts{Events: 234034, Switches: 49476, Threads: 259, Carriers: 28}},
		{"Water-sp", "hlrc", 7199494, engine.Counts{Events: 91878, Switches: 18282, Threads: 110, Carriers: 29}},
		{"Water-nsq", "hlrc", 2042927, engine.Counts{Events: 38325, Switches: 8465, Threads: 82, Carriers: 31}},
		{"Raytrace", "hlrc", 818738, engine.Counts{Events: 15521, Switches: 2869, Threads: 62, Carriers: 28}},
		{"Volrend", "hlrc", 1134986, engine.Counts{Events: 27543, Switches: 5598, Threads: 59, Carriers: 28}},
		{"FFT", "aurc", 3641567, engine.Counts{Events: 148089, Switches: 26798, Threads: 47, Carriers: 20}},
		{"LU", "aurc", 3477530, engine.Counts{Events: 88681, Switches: 18457, Threads: 55, Carriers: 22}},
		{"Ocean", "aurc", 5546824, engine.Counts{Events: 232754, Switches: 35171, Threads: 58, Carriers: 20}},
		{"Radix", "aurc", 5080853, engine.Counts{Events: 598418, Switches: 127233, Threads: 56, Carriers: 22}},
		{"Barnes-sp", "aurc", 3408079, engine.Counts{Events: 177314, Switches: 37806, Threads: 49, Carriers: 21}},
	} {
		c, err := suite.ResolveCell(exp.CellSpec{Workload: tc.app, Mode: tc.mode})
		if err != nil {
			t.Fatal(err)
		}
		res, err := svmsim.Run(c.Cfg, c.W.Small())
		if err != nil {
			t.Fatalf("%s: %v", tc.app, err)
		}
		if got := res.World.Sys.Sim.Counts(); res.Run.Cycles != tc.cycles || got != tc.want {
			t.Errorf("%s (%s): %d cycles, %+v; want %d cycles, %+v", tc.app, tc.mode, res.Run.Cycles, got, tc.cycles, tc.want)
		}
	}
}

// TestWideNodesPinned pins runs with more than 8 processors per node, whose
// holder record takes two bytes per line: 16 processors in one node of FFT
// under HLRC and of Radix under AURC, and Ocean under AURC on two nodes of
// 16. Cycles and events read the same as when every write probed every
// other processor of its node.
func TestWideNodesPinned(t *testing.T) {
	suite := exp.NewSuite(exp.Small)
	for _, tc := range []struct {
		spec           exp.CellSpec
		cycles, events uint64
	}{
		{exp.CellSpec{Workload: "FFT", Mode: "hlrc", Procs: 16, PPN: 16}, 931817, 137354},
		{exp.CellSpec{Workload: "Radix", Mode: "aurc", Procs: 16, PPN: 16}, 1947032, 591072},
		{exp.CellSpec{Workload: "Ocean", Mode: "aurc", Procs: 32, PPN: 16}, 2878416, 270808},
	} {
		c, err := suite.ResolveCell(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := svmsim.Run(c.Cfg, c.W.Small())
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Workload, err)
		}
		if ev := res.World.Sys.Sim.Counts().Events; res.Run.Cycles != tc.cycles || ev != tc.events {
			t.Errorf("%s (%s, %d/%d): %d cycles, %d events; want %d, %d", tc.spec.Workload, tc.spec.Mode,
				tc.spec.Procs, tc.spec.PPN, res.Run.Cycles, ev, tc.cycles, tc.events)
		}
	}
}

// TestBlockingDeliveriesPinned pins runs whose NI deliveries block, so they
// run on the receive side's coroutine: AURC Radix with a 300-byte send
// queue, where update acks wait for queue space, and Water-nsq with NI page
// serves and a 200-byte queue. Cycles, events and queue stalls read the
// same as when every NI burst ran on a spawned thread.
func TestBlockingDeliveriesPinned(t *testing.T) {
	suite := exp.NewSuite(exp.Small)
	for _, tc := range []struct {
		spec           exp.CellSpec
		queueBytes     int
		cycles, events uint64
		stalls         uint64
	}{
		{exp.CellSpec{Workload: "Radix", Mode: "aurc"}, 300, 5177383, 561437, 975},
		{exp.CellSpec{Workload: "Water-nsq", NIServePages: true}, 200, 1978277, 37940, 53},
	} {
		c, err := suite.ResolveCell(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		c.Cfg.Net.QueueBytes = tc.queueBytes
		res, err := svmsim.Run(c.Cfg, c.W.Small())
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Workload, err)
		}
		if ev := res.World.Sys.Sim.Counts().Events; res.Run.Cycles != tc.cycles || ev != tc.events || res.Run.Net.QueueStalls != tc.stalls {
			t.Errorf("%s: %d cycles, %d events, %d queue stalls; want %d, %d, %d",
				tc.spec.Workload, res.Run.Cycles, ev, res.Run.Net.QueueStalls, tc.cycles, tc.events, tc.stalls)
		}
	}
}

// TestFaultyDeliveriesPinned pins three sim-sync apps under a fault plan
// that duplicates and reorders messages, so duplicate lock grants, lock
// requests and page replies reach the protocol. With the reliable layer on,
// it pins cycles, events and the transport's recovery counters; without it,
// the duplicates break the lock protocol, and it pins the error text, whose
// thread name is a handler thread's in the Water-nsq run.
func TestFaultyDeliveriesPinned(t *testing.T) {
	suite := exp.NewSuite(exp.Small)
	type recovery struct{ DupsInjected, Dups, Retransmits, AcksSent, NacksSent uint64 }
	for _, tc := range []struct {
		app            string
		cycles, events uint64
		net            recovery
		unrecovered    string
	}{
		{"Barnes-reb", 17452430, 312929, recovery{1032, 924, 293, 9579, 421},
			`machine: Barnes-rebuild: engine: thread "proc4" panicked: proto: release of lock 0 not held at node 1`},
		{"Water-nsq", 2261323, 49656, recovery{120, 97, 35, 1364, 38},
			`machine: Water-nsquared: engine: thread "intr-lock@n3" panicked: network: intra-node message (should be handled in shared memory)`},
		{"Raytrace", 989523, 19674, recovery{41, 50, 25, 439, 28},
			`machine: Raytrace: engine: thread "proc14" panicked: proto: release of lock 14 not held at node 3`},
	} {
		c, err := suite.ResolveCell(exp.CellSpec{Workload: tc.app})
		if err != nil {
			t.Fatal(err)
		}
		c.Cfg.Net.Fault = &svmsim.FaultPlan{Seed: 7, Default: svmsim.LinkFaults{DupPerMille: 50, ReorderPerMille: 50, ReorderDelayCycles: 20000}}
		c.Cfg.Net.Reliable.Enabled = true
		res, err := svmsim.Run(c.Cfg, c.W.Small())
		if err != nil {
			t.Fatalf("%s, reliable: %v", tc.app, err)
		}
		n := res.Run.Net
		got := recovery{n.DupsInjected, n.Dups, n.Retransmits, n.AcksSent, n.NacksSent}
		if ev := res.World.Sys.Sim.Counts().Events; res.Run.Cycles != tc.cycles || ev != tc.events || got != tc.net {
			t.Errorf("%s, reliable: %d cycles, %d events, %+v; want %d, %d, %+v",
				tc.app, res.Run.Cycles, ev, got, tc.cycles, tc.events, tc.net)
		}
		c.Cfg.Net.Reliable.Enabled = false
		if _, err := svmsim.Run(c.Cfg, c.W.Small()); err == nil || err.Error() != tc.unrecovered {
			t.Errorf("%s, unrecovered: error %v, want %s", tc.app, err, tc.unrecovered)
		}
	}
}
