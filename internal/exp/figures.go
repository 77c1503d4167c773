package exp

import (
	"svmsim"
	"svmsim/internal/stats"
)

// Figure1 reproduces the ideal vs achievable speedup comparison that
// motivates the study.
func (s *Suite) Figure1() (*Table, error) {
	t := &Table{ID: "Figure 1", Title: "Ideal and achievable speedups (16 procs, 4/node, achievable parameters)",
		Cols: []string{"Ideal", "Achievable"}}
	runs, errs := s.RunCells(grid(apps(), []svmsim.Config{svmsim.Uniprocessor(s.Base()), s.Base()}))
	if err := FirstErr(errs); err != nil {
		return nil, err
	}
	for i, w := range apps() {
		sp := stats.ComputeSpeedups(runs[2*i].Cycles, runs[2*i+1])
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: []float64{sp.Ideal, sp.Achievable}})
	}
	return t, nil
}

// Table2 reproduces the protocol-event characterization: page faults,
// fetches, local and remote lock acquires, and barriers per processor per
// million compute cycles, for 1, 4 and 8 processors per node.
func (s *Suite) Table2() (*Table, error) {
	return s.commSweep("Table 2", "Protocol events per processor per 1M compute cycles (ppn=1/4/8)",
		[]string{
			"flt(1)", "flt(4)", "flt(8)",
			"fetch(1)", "fetch(4)", "fetch(8)",
			"lockL(1)", "lockL(4)", "lockL(8)",
			"lockR(1)", "lockR(4)", "lockR(8)",
			"barr(1)", "barr(4)", "barr(8)",
		}, 1,
		func(p *stats.Proc) uint64 { return p.PageFaults },
		func(p *stats.Proc) uint64 { return p.PageFetches },
		func(p *stats.Proc) uint64 { return p.LocalLocks },
		func(p *stats.Proc) uint64 { return p.RemoteLocks },
		func(p *stats.Proc) uint64 { return p.Barriers })
}

// commSweep renders per-processor counts per 1M compute cycles, scaled by
// scale, at 1, 4 and 8 processors per node: one column per (metric, ppn)
// pair, metric-major (Table 2, Figures 3 and 4).
func (s *Suite) commSweep(id, title string, cols []string, scale float64, metrics ...func(*stats.Proc) uint64) (*Table, error) {
	t := &Table{ID: id, Title: title, Cols: cols}
	ppns := []int{1, 4, 8}
	cfgs := make([]svmsim.Config, len(ppns))
	for i, ppn := range ppns {
		cfgs[i] = s.Base()
		cfgs[i].ProcsPerNode = ppn
	}
	runs, errs := s.RunCells(grid(apps(), cfgs))
	if err := FirstErr(errs); err != nil {
		return nil, err
	}
	for i, w := range apps() {
		var vals []float64
		for _, metric := range metrics {
			for _, run := range runs[i*len(cfgs):][:len(cfgs)] {
				v := run.PerMComputeCycles(run.Sum(metric)) / float64(len(run.Procs))
				vals = append(vals, v*scale)
			}
		}
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: vals})
	}
	return t, nil
}

// Figure3 reproduces messages sent per processor per 1M compute cycles.
func (s *Suite) Figure3() (*Table, error) {
	return s.commSweep("Figure 3", "Messages sent per processor per 1M compute cycles",
		[]string{"ppn=1", "ppn=4", "ppn=8"}, 1,
		func(p *stats.Proc) uint64 { return p.MsgsSent })
}

// Figure4 reproduces MBytes sent per processor per 1M compute cycles.
func (s *Suite) Figure4() (*Table, error) {
	return s.commSweep("Figure 4", "MBytes sent per processor per 1M compute cycles",
		[]string{"ppn=1", "ppn=4", "ppn=8"}, 1.0/(1<<20),
		func(p *stats.Proc) uint64 { return p.BytesSent })
}

// paramSweep renders the speedup of each workload under each configuration,
// one column per configuration.
func (s *Suite) paramSweep(id, title string, cols []string, cfgs []svmsim.Config, wls []svmsim.Workload) (*Table, error) {
	t := &Table{ID: id, Title: title, Cols: cols}
	// Each row's cells are the uniprocessor baseline, then one per column.
	row := append([]svmsim.Config{svmsim.Uniprocessor(s.Base())}, cfgs...)
	runs, errs := s.RunCells(grid(wls, row))
	if err := FirstErr(errs); err != nil {
		return nil, err
	}
	for i, w := range wls {
		r := runs[i*len(row):][:len(row)]
		vals := make([]float64, len(cfgs))
		for j, run := range r[1:] {
			vals[j] = float64(r[0].Cycles) / float64(run.Cycles)
		}
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: vals})
	}
	return t, nil
}

// Figure5 reproduces the host-overhead sweep.
func (s *Suite) Figure5() (*Table, error) {
	return s.axisSweep("Figure 5", "Speedup vs host overhead (cycles/message)", AxisHostOverhead, svmsim.HLRC, apps())
}

// Figure7 reproduces the NI-occupancy sweep under HLRC.
func (s *Suite) Figure7() (*Table, error) {
	return s.axisSweep("Figure 7", "Speedup vs NI occupancy (cycles/packet), HLRC", AxisOccupancy, svmsim.HLRC, apps())
}

// Figure8 reproduces the I/O-bus bandwidth sweep.
func (s *Suite) Figure8() (*Table, error) {
	return s.axisSweep("Figure 8", "Speedup vs I/O bus bandwidth (MB/s per MHz)", AxisIOBw, svmsim.HLRC, apps())
}

// Figure10 reproduces the interrupt-cost sweep.
func (s *Suite) Figure10() (*Table, error) {
	return s.axisSweep("Figure 10", "Speedup vs interrupt cost (cycles per half)", AxisInterrupt, svmsim.HLRC, apps())
}

// Figure12 reproduces the NI-occupancy sweep under AURC, where occupancy
// matters much more (fine-grain update packets). The paper shows a
// representative regular + irregular subset.
func (s *Suite) Figure12() (*Table, error) {
	return s.axisSweep("Figure 12", "Speedup vs NI occupancy (cycles/packet), AURC", AxisOccupancy, svmsim.AURC,
		pick("FFT", "LU", "Ocean", "Water-sp", "Barnes-reb"))
}

// Figure13 reproduces the page-size sweep.
func (s *Suite) Figure13() (*Table, error) {
	return s.axisSweep("Figure 13", "Speedup vs page size", AxisPageSize, svmsim.HLRC, apps())
}

// Figure14 reproduces the clustering sweep (processors per node; total
// fixed).
func (s *Suite) Figure14() (*Table, error) {
	return s.axisSweep("Figure 14", "Speedup vs degree of clustering (procs/node)", AxisClustering, svmsim.HLRC, apps())
}

// pick selects workloads by name.
func pick(names ...string) []svmsim.Workload {
	var out []svmsim.Workload
	for _, w := range apps() {
		for _, n := range names {
			if w.Name == n {
				out = append(out, w)
			}
		}
	}
	return out
}

// SweepParam runs a named single-parameter sweep over the given workloads
// under protocol mode (the cmd/sweep entry point).
func (s *Suite) SweepParam(param string, wls []svmsim.Workload, mode svmsim.Mode) (*Table, error) {
	a, err := AxisByName(param)
	if err != nil {
		return nil, err
	}
	title := "Speedup vs " + param
	if mode == svmsim.AURC {
		title += " (AURC)"
	}
	return s.axisSweep("Sweep", title, a, mode, wls)
}
