// Command svmsim runs one workload on one configuration of the simulated SVM
// cluster and prints the execution statistics: cycles, speedup (optionally,
// against a uniprocessor baseline), time breakdown, and protocol event
// counts.
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
	"strings"

	"svmsim"
	"svmsim/internal/exp"
	"svmsim/internal/stats"
)

func main() {
	size := exp.Small
	flag.Var(&size, "size", "problem size: small or default")
	var (
		appName   = flag.String("app", "FFT", "workload name (see -list)")
		list      = flag.Bool("list", false, "list workloads and exit")
		procs     = flag.Int("procs", 16, "total processors")
		ppn       = flag.Int("ppn", 4, "processors per node")
		mode      = flag.String("mode", "hlrc", "protocol: hlrc or aurc")
		overhead  = flag.Uint64("overhead", 500, "host overhead (cycles/message)")
		occupancy = flag.Uint64("occupancy", 200, "NI occupancy (cycles/packet)")
		iobw      = flag.Float64("iobw", 0.5, "I/O bus bandwidth (MB/s per MHz)")
		intr      = flag.Uint64("intr", 500, "interrupt cost per half (cycles)")
		page      = flag.Int("page", 4096, "page size (bytes)")
		rr        = flag.Bool("rr-interrupts", false, "round-robin interrupt delivery")
		requests  = flag.String("requests", "interrupts", "request handling: interrupts, polling, dedicated")
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

	var wl *svmsim.Workload
	for _, w := range svmsim.Workloads() {
		if strings.EqualFold(w.Name, *appName) {
			w := w
			wl = &w
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q; use -list\n", *appName)
		os.Exit(2)
	}
	mk := wl.Small
	if size == exp.Default {
		mk = wl.Default
	}

	cfg := svmsim.Achievable()
	if *best {
		cfg = svmsim.Best()
	}
	cfg.Procs = *procs
	cfg.ProcsPerNode = *ppn
	cfg.Net.HostOverheadCycles = *overhead
	cfg.Net.NIOccupancyCycles = *occupancy
	cfg.Net.IOBytesPerCycle = *iobw
	cfg.IntrHalfCostCycles = *intr
	cfg.Proto.PageBytes = *page
	if strings.EqualFold(*mode, "aurc") {
		cfg.Proto.Mode = svmsim.AURC
	}
	if *rr {
		cfg.IntrPolicy = svmsim.IntrRoundRobin
	}
	switch strings.ToLower(*requests) {
	case "polling":
		cfg.Requests = svmsim.RequestPolling
	case "dedicated":
		cfg.Requests = svmsim.RequestDedicated
	}
	cfg.NIServePages = *niServe
	cfg.NIsPerNode = *nis

	var rec *svmsim.TraceRecorder
	if *traceSum || *traceTail > 0 {
		rec = svmsim.NewTraceRecorder(1 << 21)
		cfg.Trace = rec
	}

	res, err := svmsim.Run(cfg, mk())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	run := res.Run

	fmt.Printf("%s on %d procs (%d/node), %s, page %dB\n",
		wl.Name, cfg.Procs, cfg.ProcsPerNode, cfg.Proto.Mode, cfg.Proto.PageBytes)
	fmt.Printf("execution time: %d cycles (%.2f ms at 200 MHz)\n",
		run.Cycles, float64(run.Cycles)/200e3)

	if *speedup {
		uniRes, err := svmsim.Run(svmsim.Uniprocessor(cfg), mk())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sp := svmsim.ComputeSpeedups(uniRes.Run.Cycles, run)
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
