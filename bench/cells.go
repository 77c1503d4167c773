package main

import (
	"fmt"

	"svmsim"
	"svmsim/internal/exp"
)

// figureSpecs lists the wire specs of every cell behind one of the paper's
// figures, uniprocessor baselines included, in the same terms exp's figure
// methods build them: the suite baseline with one parameter swept.
func figureSpecs(id string) []exp.CellSpec {
	var apps []string
	for _, w := range svmsim.Workloads() {
		apps = append(apps, w.Name)
	}
	var points []func(*exp.CellSpec)
	mode := ""
	switch id {
	case "Figure 5":
		for _, v := range exp.HostOverheadPoints {
			points = append(points, func(s *exp.CellSpec) { s.HostOverheadCycles = &v })
		}
	case "Figure 7", "Figure 12":
		for _, v := range exp.OccupancyPoints {
			points = append(points, func(s *exp.CellSpec) { s.NIOccupancyCycles = &v })
		}
		if id == "Figure 12" {
			// exp's AURC occupancy figure shows this subset, as the paper does.
			apps, mode = []string{"FFT", "LU", "Ocean", "Water-sp", "Barnes-reb"}, "aurc"
		}
	case "Figure 8":
		for _, v := range exp.IOBandwidthPoints {
			points = append(points, func(s *exp.CellSpec) { s.IOBytesPerCycle = &v })
		}
	case "Figure 10":
		for _, v := range exp.InterruptPoints {
			points = append(points, func(s *exp.CellSpec) { s.IntrHalfCostCycles = &v })
		}
	case "Figure 14":
		for _, v := range exp.ClusteringPoints {
			points = append(points, func(s *exp.CellSpec) { s.PPN = v })
		}
	default:
		panic(fmt.Sprintf("figureSpecs: no cells listed for %q", id))
	}
	var specs []exp.CellSpec
	for _, app := range apps {
		specs = append(specs, exp.CellSpec{Workload: app, Uniprocessor: true})
		for _, set := range points {
			s := exp.CellSpec{Workload: app, Mode: mode}
			set(&s)
			specs = append(specs, s)
		}
	}
	return specs
}

// resolved is a wire spec with the runnable cell it names.
type resolved struct {
	spec exp.CellSpec
	cell exp.Cell
}

// resolveAll resolves specs against the suite's baseline, dropping later
// specs that name a cell already listed.
func resolveAll(s *exp.Suite, specs []exp.CellSpec) ([]resolved, error) {
	seen := map[string]bool{}
	var out []resolved
	for _, spec := range specs {
		c, err := s.ResolveCell(spec)
		if err != nil {
			return nil, err
		}
		if !seen[c.Key()] {
			seen[c.Key()] = true
			out = append(out, resolved{spec, c})
		}
	}
	return out, nil
}
