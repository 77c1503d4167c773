package exp

import (
	"fmt"

	"svmsim"
)

// DropPoints is the packet-drop sweep of the fault experiment, in parts per
// thousand of wire transfers.
var DropPoints = []int{0, 1, 5, 10, 20}

// FaultSeed is the fixed seed of the drop-rate experiment's fault schedule,
// so the experiment is reproducible run to run.
const FaultSeed = 1997

// DropRate evaluates end performance on an unreliable network: speedups under
// increasing packet-drop rates with the NI's reliable-delivery layer
// recovering the losses. The subset pairs two bandwidth-bound applications
// (FFT, Radix) with two interrupt-bound ones (Water-nsq, Barnes-reb), the
// taxonomy of the paper's parameter study: retransmissions tax the I/O bus
// and NI occupancy like any other traffic, while each recovered loss stretches
// a request/response round trip the way interrupt cost does. The Rel:0 column
// runs the reliable layer on a fault-free network, isolating its ack and
// timer overhead from actual recovery cost. A failing cell degrades to an
// error row; the remaining rows still render.
func (s *Suite) DropRate() (*Table, error) {
	t := &Table{ID: "DropRate",
		Title: "Speedup vs packet-drop rate (per mille) under reliable delivery (Rel:0 = ack overhead only)"}
	t.Cols = append(t.Cols, "Plain")
	for _, d := range DropPoints {
		t.Cols = append(t.Cols, fmt.Sprintf("Rel:%d", d))
	}
	subset := pick("FFT", "Radix", "Water-nsq", "Barnes-reb")
	mods := []func(svmsim.Config) svmsim.Config{
		func(c svmsim.Config) svmsim.Config { return c },
	}
	for _, d := range DropPoints {
		d := d
		mods = append(mods, func(c svmsim.Config) svmsim.Config {
			c.Net.Reliable.Enabled = true
			if d > 0 {
				c.Net.Fault = &svmsim.FaultPlan{
					Seed:    FaultSeed,
					Default: svmsim.LinkFaults{DropPerMille: d},
				}
			}
			return c
		})
	}
	var cells []Cell
	for _, w := range subset {
		cells = append(cells, s.uniCell(w))
		for _, mod := range mods {
			cells = append(cells, Cell{Cfg: mod(s.Base()), W: w})
		}
	}
	// A failing cell lands in the suite's error cache and surfaces as an
	// error row below; the prefetch itself must not abort the sweep.
	_ = s.RunCells(cells)
	for _, w := range subset {
		var vals []float64
		var rowErr error
		for _, mod := range mods {
			sp, err := s.speedup(mod(s.Base()), w)
			if err != nil {
				rowErr = err
				break
			}
			vals = append(vals, sp)
		}
		if rowErr != nil {
			t.Rows = append(t.Rows, Row{Name: w.Name, Err: rowErr.Error()})
			continue
		}
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: vals})
	}
	return t, nil
}
