package exp

import (
	"fmt"

	"svmsim"
	"svmsim/internal/apps/synth"
	"svmsim/internal/proto"
	"svmsim/internal/stats"
)

// Table3 reproduces the maximum-slowdown summary: for each application and
// each parameter, the slowdown between the best and the degraded end of the
// studied range (other parameters held at their achievable values).
// Negative numbers indicate speedups, as in the paper.
func (s *Suite) Table3() (*Table, error) {
	t := &Table{ID: "Table 3",
		Title: "Maximum slowdowns (%) across each parameter's range (negative = speedup)",
		Cols:  make([]string, NumAxes)}
	for a := range axes {
		t.Cols[a] = axes[a].column
	}
	var cells []Cell
	for _, w := range apps() {
		for a := Axis(0); a < NumAxes; a++ {
			best, worst := a.extremes(s.Base())
			cells = append(cells, Cell{Cfg: best, W: w}, Cell{Cfg: worst, W: w})
		}
	}
	if err := s.RunCells(cells); err != nil {
		return nil, err
	}
	for _, w := range apps() {
		var vals []float64
		for a := Axis(0); a < NumAxes; a++ {
			slow, err := s.slowdown(a, w)
			if err != nil {
				return nil, err
			}
			vals = append(vals, slow)
		}
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: vals})
	}
	return t, nil
}

// slowdown is the slowdown of workload w from the best end of axis a's
// studied range to its degraded end.
func (s *Suite) slowdown(a Axis, w svmsim.Workload) (float64, error) {
	best, worst := a.extremes(s.Base())
	rb, err := s.run(best, w)
	if err != nil {
		return 0, err
	}
	rw, err := s.run(worst, w)
	if err != nil {
		return 0, err
	}
	return stats.Slowdown(rb.Cycles, rw.Cycles), nil
}

// Table4 reproduces the best / achievable / ideal speedups per application.
func (s *Suite) Table4() (*Table, error) {
	t := &Table{ID: "Table 4", Title: "Best, achievable and ideal speedups",
		Cols: []string{"Best", "Achievable", "Ideal"}}
	best := svmsim.Best()
	best.Procs = s.Procs
	best.ProcsPerNode = s.PPN
	var cells []Cell
	for _, w := range apps() {
		cells = append(cells, s.uniCell(w),
			Cell{Cfg: best, W: w}, Cell{Cfg: s.Base(), W: w})
	}
	if err := s.RunCells(cells); err != nil {
		return nil, err
	}
	for _, w := range apps() {
		uni, err := s.uniTime(w)
		if err != nil {
			return nil, err
		}
		bRun, err := s.run(best, w)
		if err != nil {
			return nil, err
		}
		aRun, err := s.run(s.Base(), w)
		if err != nil {
			return nil, err
		}
		sp := stats.ComputeSpeedups(uni, aRun)
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: []float64{
			float64(uni) / float64(bRun.Cycles), sp.Achievable, sp.Ideal}})
	}
	return t, nil
}

// correlate builds the normalized slowdown-vs-characteristic comparison of
// Figures 6, 9 and 11: both the slowdown across axis a's range and the
// predicting application characteristic at the baseline, each normalized to
// its maximum.
func (s *Suite) correlate(id, title, predictorName string, a Axis, predictor func(*stats.Proc) uint64) (*Table, error) {
	t := &Table{ID: id, Title: title, Cols: []string{"NormSlowdown", "Norm" + predictorName}}
	best, worst := a.extremes(s.Base())
	var cells []Cell
	for _, w := range apps() {
		cells = append(cells, Cell{Cfg: best, W: w}, Cell{Cfg: worst, W: w}, Cell{Cfg: s.Base(), W: w})
	}
	if err := s.RunCells(cells); err != nil {
		return nil, err
	}
	var slows, preds []float64
	for _, w := range apps() {
		slow, err := s.slowdown(a, w)
		if err != nil {
			return nil, err
		}
		base, err := s.run(s.Base(), w)
		if err != nil {
			return nil, err
		}
		slows = append(slows, slow)
		preds = append(preds, base.PerMComputeCycles(base.Sum(predictor)))
	}
	maxS, maxP := 0.0, 0.0
	for i := range slows {
		if slows[i] > maxS {
			maxS = slows[i]
		}
		if preds[i] > maxP {
			maxP = preds[i]
		}
	}
	//svmlint:ignore floatcmp exact-zero sentinel (maxS never assigned) guarding the division below
	if maxS == 0 {
		maxS = 1
	}
	//svmlint:ignore floatcmp exact-zero sentinel (maxP never assigned) guarding the division below
	if maxP == 0 {
		maxP = 1
	}
	for i, w := range apps() {
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: []float64{slows[i] / maxS, preds[i] / maxP}})
	}
	return t, nil
}

// Figure6 relates host-overhead slowdown to the number of messages sent.
func (s *Suite) Figure6() (*Table, error) {
	return s.correlate("Figure 6",
		"Host-overhead slowdown vs messages sent (both normalized to their maxima)",
		"Msgs", AxisHostOverhead,
		func(p *stats.Proc) uint64 { return p.MsgsSent })
}

// Figure9 relates I/O-bandwidth slowdown to the number of bytes sent.
func (s *Suite) Figure9() (*Table, error) {
	return s.correlate("Figure 9",
		"I/O-bandwidth slowdown vs bytes sent (both normalized to their maxima)",
		"Bytes", AxisIOBw,
		func(p *stats.Proc) uint64 { return p.BytesSent })
}

// Figure11 relates interrupt-cost slowdown to page fetches plus remote lock
// acquires (the events that raise interrupts).
func (s *Suite) Figure11() (*Table, error) {
	return s.correlate("Figure 11",
		"Interrupt-cost slowdown vs page fetches + remote lock acquires (normalized)",
		"Fetch+RLock", AxisInterrupt,
		func(p *stats.Proc) uint64 { return p.PageFetches + p.RemoteLocks })
}

// InterruptVariants reproduces the Section-6 variants: interrupt sensitivity
// with uniprocessor nodes, and with round-robin interrupt delivery.
func (s *Suite) InterruptVariants() (*Table, error) {
	points := []svmsim.Time{0, 1000, 10000}
	var cfgs []svmsim.Config
	for _, v := range points {
		c := s.Base()
		c.ProcsPerNode = 1
		c.IntrHalfCostCycles = v
		cfgs = append(cfgs, c)
	}
	for _, v := range points {
		c := s.Base()
		c.IntrPolicy = svmsim.IntrRoundRobin
		c.IntrHalfCostCycles = v
		cfgs = append(cfgs, c)
	}
	return s.paramSweep("Variants", "Interrupt-cost sensitivity: uniprocessor nodes and round-robin delivery (speedups at interrupt cost 0 / 1k / 10k per half)",
		[]string{"uni:0", "uni:1k", "uni:10k", "rr:0", "rr:1k", "rr:10k"}, cfgs,
		pick("FFT", "Barnes-reb", "Water-nsq"))
}

// AllLocalAblation reproduces the per-application analysis trick of Section
// 7: artificially satisfying all page faults locally, isolating the cost of
// remote fetches.
func (s *Suite) AllLocalAblation() (*Table, error) {
	allLocal := s.Base()
	allLocal.Proto.AllLocal = true
	return s.paramSweep("Ablation", "Speedup with remote page fetches artificially disabled (Section 7 analysis)",
		[]string{"Normal", "AllLocal"}, []svmsim.Config{s.Base(), allLocal}, apps())
}

// Experiments returns every experiment in paper order.
func (s *Suite) Experiments() []struct {
	ID  string
	Run func() (*Table, error)
} {
	return []struct {
		ID  string
		Run func() (*Table, error)
	}{
		{"fig1", s.Figure1},
		{"table2", s.Table2},
		{"fig3", s.Figure3},
		{"fig4", s.Figure4},
		{"table3", s.Table3},
		{"fig5", s.Figure5},
		{"fig6", s.Figure6},
		{"fig7", s.Figure7},
		{"fig8", s.Figure8},
		{"fig9", s.Figure9},
		{"fig10", s.Figure10},
		{"fig11", s.Figure11},
		{"fig12", s.Figure12},
		{"table4", s.Table4},
		{"fig13", s.Figure13},
		{"fig14", s.Figure14},
		{"variants", s.InterruptVariants},
		{"ablation", s.AllLocalAblation},
		{"extensions", s.Extensions},
		{"microbench", s.Microbench},
		{"breakdown", s.Breakdown},
		{"droprate", s.DropRate},
		{"nodecrash", s.NodeCrash},
	}
}

// Extensions evaluates the paper's proposed interrupt-avoidance and
// bandwidth schemes (Discussion/Future Work): with commercial-OS interrupt
// costs (10k cycles per half), how much performance do polling, a dedicated
// protocol processor, and NI-served page fetches recover — and what does an
// extra network interface per node buy?
func (s *Suite) Extensions() (*Table, error) {
	base := s.Base()
	intr := base
	intr.IntrHalfCostCycles = 10000
	poll, dedic, niServe := intr, intr, intr
	poll.Requests = svmsim.RequestPolling
	dedic.Requests = svmsim.RequestDedicated
	niServe.NIServePages = true
	twoNIs := base
	twoNIs.NIsPerNode = 2
	return s.paramSweep("Extensions",
		"Interrupt-avoidance and bandwidth extensions (speedups; Intr10k = commercial interrupts baseline)",
		[]string{"Intr500", "Intr10k", "Poll@10k", "Dedic@10k", "NIserve@10k", "2xNI"},
		[]svmsim.Config{base, intr, poll, dedic, niServe, twoNIs}, apps())
}

// Microbench characterizes the protocol on the synthetic sharing patterns
// (producer-consumer, migratory, false sharing, all-to-all, hot lock,
// read-mostly): cycles and traffic under HLRC vs AURC. These isolate the
// protocol behaviors the real applications mix together.
func (s *Suite) Microbench() (*Table, error) {
	t := &Table{ID: "Microbench",
		Title: "Synthetic sharing patterns: Mcycles and messages under HLRC vs AURC",
		Cols:  []string{"HLRC Mcyc", "AURC Mcyc", "HLRC msgs", "AURC msgs", "HLRC diffs", "AURC upd"}}
	// Wrap each synthetic pattern as a workload so the runs flow through the
	// suite's memoized, parallel cell machinery like the real applications.
	synthWorkload := func(pat synth.Pattern) svmsim.Workload {
		mk := func() svmsim.App { return synth.New(synth.Default(pat)) }
		return svmsim.Workload{Name: "synth:" + pat.String(), Small: mk, Default: mk}
	}
	modes := []proto.Mode{proto.HLRC, proto.AURC}
	var cells []Cell
	for _, pat := range synth.Patterns() {
		for _, mode := range modes {
			cfg := s.Base()
			cfg.Proto.Mode = mode
			cells = append(cells, Cell{Cfg: cfg, W: synthWorkload(pat)})
		}
	}
	if err := s.RunCells(cells); err != nil {
		return nil, err
	}
	for _, pat := range synth.Patterns() {
		var vals []float64
		var cyc [2]float64
		var msgs [2]float64
		var extra [2]float64
		for i, mode := range modes {
			cfg := s.Base()
			cfg.Proto.Mode = mode
			run, err := s.run(cfg, synthWorkload(pat))
			if err != nil {
				return nil, fmt.Errorf("microbench %s/%s: %w", pat, mode, err)
			}
			cyc[i] = float64(run.Cycles) / 1e6
			msgs[i] = float64(run.Sum(func(p *stats.Proc) uint64 { return p.MsgsSent }))
			if mode == proto.HLRC {
				extra[i] = float64(run.Sum(func(p *stats.Proc) uint64 { return p.DiffsCreated }))
			} else {
				extra[i] = float64(run.Sum(func(p *stats.Proc) uint64 { return p.UpdatesSent }))
			}
		}
		vals = append(vals, cyc[0], cyc[1], msgs[0], msgs[1], extra[0], extra[1])
		t.Rows = append(t.Rows, Row{Name: pat.String(), Values: vals})
	}
	return t, nil
}

// Breakdown reports the per-application execution time breakdown at the
// achievable point (the percentages behind the paper's Section 7
// per-application analysis).
func (s *Suite) Breakdown() (*Table, error) {
	t := &Table{ID: "Breakdown",
		Title: "Execution time breakdown at the achievable point (% of total processor time)",
		Cols:  []string{"comp", "stall", "data", "lock", "barr", "handler", "send", "diff"}}
	kinds := []stats.TimeKind{
		stats.Compute, stats.LocalStall, stats.DataWait, stats.LockWait,
		stats.BarrierWait, stats.HandlerSteal, stats.SendOverhead, stats.DiffTime,
	}
	var cells []Cell
	for _, w := range apps() {
		cells = append(cells, Cell{Cfg: s.Base(), W: w})
	}
	if err := s.RunCells(cells); err != nil {
		return nil, err
	}
	for _, w := range apps() {
		run, err := s.run(s.Base(), w)
		if err != nil {
			return nil, err
		}
		var tot float64
		for _, k := range kinds {
			tot += float64(run.Sum(func(p *stats.Proc) uint64 { return p.Time[k] }))
		}
		var vals []float64
		for _, k := range kinds {
			v := float64(run.Sum(func(p *stats.Proc) uint64 { return p.Time[k] }))
			vals = append(vals, v/tot*100)
		}
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: vals})
	}
	return t, nil
}
