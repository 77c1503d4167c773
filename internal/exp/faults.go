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
// timer overhead from actual recovery cost. A failing cell degrades its row
// to an error row carrying the row's earliest failing cell's error (a
// failing uniprocessor baseline reads "uniprocessor <workload>: <error>");
// the remaining rows still render.
func (s *Suite) DropRate() (*Table, error) {
	t := &Table{ID: "DropRate",
		Title: "Speedup vs packet-drop rate (per mille) under reliable delivery (Rel:0 = ack overhead only)"}
	t.Cols = append(t.Cols, "Plain")
	for _, d := range DropPoints {
		t.Cols = append(t.Cols, fmt.Sprintf("Rel:%d", d))
	}
	subset := pick("FFT", "Radix", "Water-nsq", "Barnes-reb")
	// Each row's cells are the uniprocessor baseline, then one per column.
	row := []svmsim.Config{svmsim.Uniprocessor(s.Base()), s.Base()}
	for _, d := range DropPoints {
		c := s.Base()
		c.Net.Reliable.Enabled = true
		if d > 0 {
			c.Net.Fault = &svmsim.FaultPlan{
				Seed:    FaultSeed,
				Default: svmsim.LinkFaults{DropPerMille: d},
			}
		}
		row = append(row, c)
	}
	runs, errs := s.RunCells(grid(subset, row))
	for i, w := range subset {
		r, e := runs[i*len(row):][:len(row)], errs[i*len(row):][:len(row)]
		if e[0] != nil {
			t.Rows = append(t.Rows, Row{Name: w.Name, Err: fmt.Sprintf("uniprocessor %s: %v", w.Name, e[0])})
			continue
		}
		if err := FirstErr(e); err != nil {
			t.Rows = append(t.Rows, Row{Name: w.Name, Err: err.Error()})
			continue
		}
		vals := make([]float64, len(row)-1)
		for j, run := range r[1:] {
			vals[j] = float64(r[0].Cycles) / float64(run.Cycles)
		}
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: vals})
	}
	return t, nil
}
