package main

import (
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"svmsim"
	"svmsim/internal/exp"
)

// TestTraceCellsMatchSweep: the synthetic trace for each -param holds one
// spec per workload and point, and those specs resolve to exactly the cells
// `sweep -param` simulates, uniprocessor baselines aside.
func TestTraceCellsMatchSweep(t *testing.T) {
	for _, mode := range []string{"hlrc", "aurc"} {
		for _, param := range exp.AxisNames() {
			trace, err := buildTrace("", param, "", mode)
			if err != nil {
				t.Fatalf("%s/%s: %v", param, mode, err)
			}
			axis, err := exp.AxisByName(param)
			if err != nil {
				t.Fatal(err)
			}
			wls := svmsim.Workloads()
			if want := len(wls) * len(axis.Points()); len(trace) != want {
				t.Errorf("%s/%s: %d specs, want %d (workloads × points)", param, mode, len(trace), want)
			}

			s := exp.NewSuite(exp.Small)
			var traced []string
			for _, line := range trace {
				var spec exp.CellSpec
				if err := json.Unmarshal(line, &spec); err != nil {
					t.Fatalf("%s/%s: %v", param, mode, err)
				}
				c, err := s.ResolveCell(spec)
				if err != nil {
					t.Fatalf("%s/%s: resolving %s: %v", param, mode, line, err)
				}
				traced = append(traced, c.Key())
			}

			// The sweep's cells, without simulating: every cell answers
			// from the Predict seam, which records its key.
			uni := make(map[string]bool)
			for _, w := range wls {
				uni[exp.Cell{Cfg: svmsim.Uniprocessor(s.Base()), W: w}.Key()] = true
			}
			var mu sync.Mutex
			var swept []string
			s.Predict = func(c exp.Cell) (*svmsim.RunStats, bool) {
				if k := c.Key(); !uni[k] {
					mu.Lock()
					swept = append(swept, k)
					mu.Unlock()
				}
				return &svmsim.RunStats{Cycles: 1000}, true
			}
			if _, err := s.SweepParam(param, wls, mode == "aurc"); err != nil {
				t.Fatalf("%s/%s: %v", param, mode, err)
			}

			slices.Sort(traced)
			slices.Sort(swept)
			if !slices.Equal(traced, swept) {
				t.Errorf("%s/%s: trace cells differ from the sweep's:\ntrace: %q\nsweep: %q", param, mode, traced, swept)
			}
		}
	}
}
