package exp

import (
	"fmt"
	"strconv"

	"svmsim"
)

// Axis is one of the six parameters the study sweeps: the four
// communication parameters of Table 1, then page size and processors per
// node. The constants run in Table 3's column order.
type Axis int

// The six axes.
const (
	AxisHostOverhead Axis = iota
	AxisOccupancy
	AxisIOBw
	AxisInterrupt
	AxisPageSize
	AxisClustering
	NumAxes
)

// axisDef is one row of the axis table.
type axisDef struct {
	name   string    // sweep name (SweepSpec.Param, cmd/sweep -param)
	column string    // Table 3 column title
	points []float64 // the studied range, ascending
	label  func(float64) string
	// degradesLow marks an axis whose performance degrades as its value
	// falls. Every other axis degrades toward its last point.
	degradesLow bool
}

// axes is the axis table. How each axis reads and writes a Config is
// Value and Set below: a pointer passed through a func field escapes to
// the heap, and the twin's prediction path must not allocate.
var axes = [NumAxes]axisDef{
	AxisHostOverhead: {name: "overhead", column: "HostOvh", points: floats(HostOverheadPoints), label: cyclesLabel},
	AxisOccupancy:    {name: "occupancy", column: "NIOcc", points: floats(OccupancyPoints), label: cyclesLabel},
	AxisIOBw: {name: "iobw", column: "IOBw", points: floats(IOBandwidthPoints), degradesLow: true,
		label: func(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }},
	AxisInterrupt: {name: "interrupt", column: "Intr", points: floats(InterruptPoints), label: cyclesLabel},
	AxisPageSize: {name: "pagesize", column: "PageSz", points: floats(PageSizePoints),
		label: func(v float64) string { return strconv.Itoa(int(v)/1024) + "K" }},
	AxisClustering: {name: "clustering", column: "PPN", points: floats(ClusteringPoints),
		label: func(v float64) string { return strconv.Itoa(int(v)) }},
}

// Value reads the axis's coordinate from a configuration.
func (a Axis) Value(c *svmsim.Config) float64 {
	switch a {
	case AxisHostOverhead:
		return float64(c.Net.HostOverheadCycles)
	case AxisOccupancy:
		return float64(c.Net.NIOccupancyCycles)
	case AxisIOBw:
		return c.Net.IOBytesPerCycle
	case AxisInterrupt:
		return float64(c.IntrHalfCostCycles)
	case AxisPageSize:
		return float64(c.Proto.PageBytes)
	case AxisClustering:
		return float64(c.ProcsPerNode)
	}
	return 0
}

// Set writes the axis's coordinate into a configuration.
func (a Axis) Set(c *svmsim.Config, v float64) {
	switch a {
	case AxisHostOverhead:
		c.Net.HostOverheadCycles = svmsim.Time(v)
	case AxisOccupancy:
		c.Net.NIOccupancyCycles = svmsim.Time(v)
	case AxisIOBw:
		c.Net.IOBytesPerCycle = v
	case AxisInterrupt:
		c.IntrHalfCostCycles = svmsim.Time(v)
	case AxisPageSize:
		c.Proto.PageBytes = int(v)
	case AxisClustering:
		c.ProcsPerNode = int(v)
	}
}

// String returns the axis's sweep name.
func (a Axis) String() string { return axes[a].name }

// Points returns the axis's studied range, ascending. The slice is shared:
// callers must not modify it.
func (a Axis) Points() []float64 { return axes[a].points }

// labels returns the figure column label of each point.
func (a Axis) labels() []string {
	out := make([]string, len(axes[a].points))
	for i, v := range axes[a].points {
		out[i] = axes[a].label(v)
	}
	return out
}

// DegradesLow reports whether performance degrades as the axis's value
// falls (I/O bandwidth). Every other axis degrades toward its last point.
func (a Axis) DegradesLow() bool { return axes[a].degradesLow }

// extremes returns base with the axis at the best end of its studied range
// and at the degraded end: Table 3's two cells.
func (a Axis) extremes(base svmsim.Config) (best, worst svmsim.Config) {
	p := axes[a].points
	lo, hi := p[0], p[len(p)-1]
	if a.DegradesLow() {
		lo, hi = hi, lo
	}
	best, worst = base, base
	a.Set(&best, lo)
	a.Set(&worst, hi)
	return best, worst
}

// AxisByName resolves a sweep name to its axis.
func AxisByName(name string) (Axis, error) {
	for a := Axis(0); a < NumAxes; a++ {
		if axes[a].name == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("exp: unknown parameter %q", name)
}

// AxisNames lists the sweep names in axis order.
func AxisNames() []string {
	out := make([]string, NumAxes)
	for a := range axes {
		out[a] = axes[a].name
	}
	return out
}

// axisSweep renders the speedup of each workload at every point of axis a,
// the other parameters at baseline, under protocol mode.
func (s *Suite) axisSweep(id, title string, a Axis, mode svmsim.Mode, wls []svmsim.Workload) (*Table, error) {
	base := s.Base()
	base.Proto.Mode = mode
	cfgs := make([]svmsim.Config, len(axes[a].points))
	for i, v := range axes[a].points {
		cfgs[i] = base
		a.Set(&cfgs[i], v)
	}
	return s.paramSweep(id, title, a.labels(), cfgs, wls)
}

// cyclesLabel renders a cycle count, thousands as "2k".
func cyclesLabel(v float64) string {
	if n := int(v); n >= 1000 && n%1000 == 0 {
		return strconv.Itoa(n/1000) + "k"
	}
	return strconv.Itoa(int(v))
}

// floats widens a sweep grid to the axis coordinate space.
func floats[T uint64 | int | float64](points []T) []float64 {
	out := make([]float64, len(points))
	for i, v := range points {
		out[i] = float64(v)
	}
	return out
}
