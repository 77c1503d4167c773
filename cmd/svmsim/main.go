// Command svmsim runs one workload on one configuration of the simulated SVM
// cluster and prints the execution statistics: cycles, speedup (optionally,
// against a uniprocessor baseline), time breakdown, and protocol event
// counts. The flags build a cell spec that resolves like any other
// (exp.Suite.ResolveCell), so an unknown workload, protocol or request
// scheme exits 2 with the same message `sweep -cell` prints.
//
// Usage:
//
//	svmsim -app FFT -procs 16 -ppn 4 -intr 500 -speedup
//	svmsim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"svmsim"
	"svmsim/internal/exp"
	"svmsim/internal/stats"
)

func main() {
	ach := svmsim.Achievable()
	suite := exp.NewSuite(exp.Small)
	flag.Var(&suite.Sizes, "size", "problem size: small or default")
	flag.IntVar(&suite.Procs, "procs", suite.Procs, "total processors")
	flag.IntVar(&suite.PPN, "ppn", suite.PPN, "processors per node")
	var (
		appName   = flag.String("app", "FFT", "workload name (see -list)")
		list      = flag.Bool("list", false, "list workloads and exit")
		mode      = flag.String("mode", exp.Modes.Name(svmsim.HLRC), "protocol: "+exp.Modes.Want())
		overhead  = flag.Uint64("overhead", ach.Net.HostOverheadCycles, "host overhead (cycles/message)")
		occupancy = flag.Uint64("occupancy", ach.Net.NIOccupancyCycles, "NI occupancy (cycles/packet)")
		iobw      = flag.Float64("iobw", ach.Net.IOBytesPerCycle, "I/O bus bandwidth (MB/s per MHz)")
		intr      = flag.Uint64("intr", ach.IntrHalfCostCycles, "interrupt cost per half (cycles)")
		page      = flag.Int("page", ach.Proto.PageBytes, "page size (bytes)")
		rr        = flag.Bool("rr-interrupts", false, "round-robin interrupt delivery")
		requests  = flag.String("requests", exp.RequestSchemes.Name(svmsim.RequestInterrupts), "request handling: "+exp.RequestSchemes.Want())
		niServe   = flag.Bool("ni-serve", false, "serve page requests on the NI (no host interrupt)")
		nis       = flag.Int("nis", 1, "network interfaces per node")
		speedup   = flag.Bool("speedup", false, "also run the uniprocessor baseline and report speedups")
		traceSum  = flag.Bool("trace", false, "record protocol events and print a latency summary")
		traceTail = flag.Int("trace-dump", 0, "also dump the last N trace events")
		best      = flag.Bool("best", false, "start from the best parameter set instead of achievable")
	)
	flag.Parse()

	if *list {
		for _, w := range svmsim.Workloads() {
			fmt.Println(w.Name)
		}
		return
	}
	if *page <= 0 {
		usage(fmt.Errorf("svmsim: page size %d is not positive", *page))
	}

	// A communication parameter the user does not give keeps its base
	// value: Achievable()'s, or Best()'s under -best.
	base := ach
	if *best {
		base = svmsim.Best()
	}
	spec := exp.CellSpec{
		Workload:           *appName,
		Mode:               *mode,
		HostOverheadCycles: &base.Net.HostOverheadCycles,
		NIOccupancyCycles:  &base.Net.NIOccupancyCycles,
		IOBytesPerCycle:    &base.Net.IOBytesPerCycle,
		IntrHalfCostCycles: &base.IntrHalfCostCycles,
		PageBytes:          *page,
		Requests:           *requests,
		NIServePages:       *niServe,
		NIsPerNode:         *nis,
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "overhead":
			spec.HostOverheadCycles = overhead
		case "occupancy":
			spec.NIOccupancyCycles = occupancy
		case "iobw":
			spec.IOBytesPerCycle = iobw
		case "intr":
			spec.IntrHalfCostCycles = intr
		}
	})
	if *rr {
		spec.IntrPolicy = exp.IntrPolicies.Name(svmsim.IntrRoundRobin)
	}
	cell, err := suite.ResolveCell(spec)
	if err != nil {
		usage(err)
	}
	// The uniprocessor baseline is the tables': the suite's baseline on one
	// processor, whatever the flags set for the parallel run. It is a cell
	// of its own, run without the trace recorder so the trace shows only
	// the parallel run.
	var uniCell exp.Cell
	if *speedup {
		if uniCell, err = suite.ResolveCell(exp.CellSpec{Workload: spec.Workload, Uniprocessor: true}); err != nil {
			usage(err)
		}
	}

	var rec *svmsim.TraceRecorder
	if *traceSum || *traceTail > 0 {
		rec = svmsim.NewTraceRecorder(1 << 21)
		cell.Cfg.Trace = rec
	}

	run, err := suite.RunCell(cell)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := cell.Cfg

	fmt.Printf("%s on %d procs (%d/node), %s, page %dB\n",
		cell.W.Name, cfg.Procs, cfg.ProcsPerNode, cfg.Proto.Mode, cfg.Proto.PageBytes)
	fmt.Printf("execution time: %d cycles (%.2f ms at 200 MHz)\n",
		run.Cycles, float64(run.Cycles)/200e3)

	if *speedup {
		uni, err := suite.RunCell(uniCell)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sp := svmsim.ComputeSpeedups(uni.Cycles, run)
		fmt.Printf("speedup: %.2f (ideal %.2f, uniprocessor %d cycles)\n",
			sp.Achievable, sp.Ideal, sp.Uniproc)
	}

	sum := func(f func(*stats.Proc) uint64) uint64 { return run.Sum(f) }
	fmt.Printf("\nprotocol events (total / per proc per 1M compute cycles):\n")
	for _, e := range []struct {
		name string
		f    func(*stats.Proc) uint64
	}{
		{"page faults", func(p *stats.Proc) uint64 { return p.PageFaults }},
		{"page fetches", func(p *stats.Proc) uint64 { return p.PageFetches }},
		{"local lock acquires", func(p *stats.Proc) uint64 { return p.LocalLocks }},
		{"remote lock acquires", func(p *stats.Proc) uint64 { return p.RemoteLocks }},
		{"barriers", func(p *stats.Proc) uint64 { return p.Barriers }},
		{"interrupts", func(p *stats.Proc) uint64 { return p.Interrupts }},
		{"messages sent", func(p *stats.Proc) uint64 { return p.MsgsSent }},
		{"diffs created", func(p *stats.Proc) uint64 { return p.DiffsCreated }},
		{"AURC updates", func(p *stats.Proc) uint64 { return p.UpdatesSent }},
	} {
		tot := sum(e.f)
		fmt.Printf("  %-22s %10d  %10.2f\n", e.name, tot,
			run.PerMComputeCycles(tot)/float64(len(run.Procs)))
	}
	fmt.Printf("  %-22s %10.2f MB\n", "data sent",
		float64(sum(func(p *stats.Proc) uint64 { return p.BytesSent }))/(1<<20))

	if rec != nil {
		fmt.Println()
		rec.Summary(os.Stdout)
		if *traceTail > 0 {
			rec.Dump(os.Stdout, *traceTail)
		}
	}

	fmt.Printf("\ntime breakdown (mean %% of per-processor time):\n")
	var tot float64
	for k := stats.TimeKind(0); k < stats.NumTimeKinds; k++ {
		tot += float64(sum(func(p *stats.Proc) uint64 { return p.Time[k] }))
	}
	for k := stats.TimeKind(0); k < stats.NumTimeKinds; k++ {
		v := float64(sum(func(p *stats.Proc) uint64 { return p.Time[k] }))
		fmt.Printf("  %-14s %6.1f%%\n", k, v/tot*100)
	}
}

// usage reports a flag value that does not resolve to a runnable cell and
// exits 2, the flag package's code for bad usage.
func usage(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
