// Package twin is the analytical performance twin of the simulator: a
// closed-form model of end execution time as a function of the paper's
// communication parameters, calibrated per workload from a small set of
// anchor simulations and answering in microseconds what a full simulation
// answers in ~100ms.
//
// The model rests on the paper's finding 4: sensitivity to each
// communication parameter is a near-linear function of observable event
// counts — host-overhead sensitivity tracks messages sent, bandwidth
// sensitivity tracks bytes sent, interrupt-cost sensitivity tracks page
// fetches + remote lock acquires, and (finding 3) AURC's NI-occupancy
// sensitivity additionally tracks automatic-update traffic. Near-linear
// means a handful of anchor simulations per axis pin the response curve:
//
//	T(v_a)       = piecewise-linear interpolation through the anchor
//	               times along axis a (parameter value space for the four
//	               communication parameters, log2 space for page size and
//	               degree of clustering)
//	T(v_1..v_6)  = T_base + Σ_a (T_a(v_a) − T_base)     (additive composition)
//	speedup      = T_uniprocessor / T
//
// Each per-axis curve carries a leave-one-out residual (drop an interior
// anchor, predict it from its neighbors' chord, take the worst relative
// error), and every prediction reports a relative confidence interval
// assembled from the residuals of its active axes plus a cross-axis
// interaction term for composed predictions. Anchor cells — including the
// calibrated baseline and the uniprocessor cell — predict exactly (the
// model returns the measured simulation time, CI 0).
//
// Calibration pulls anchors through exp.Suite.RunCell, so it shares the
// suite's memo, singleflight and persistent disk cache: calibrating against
// a warm cache simulates nothing, and calibrating twice from the same cache
// yields byte-identical coefficients (test-enforced). On top of the model
// sit Optimize ("cheapest parameter configuration achieving speedup ≥ S"
// plus sensitivity rankings, optimize.go), twin-guided sweep pruning
// (cmd/sweep -twin-prune via exp.Suite.Predict), the svmsimd
// /v1/twin/predict and /v1/twin/optimize endpoints (internal/server), and
// the Report validation harness replaying the paper's tables (report.go).
package twin

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"svmsim"
	"svmsim/internal/exp"
	"svmsim/internal/stats"
)

// The twin's error types live in internal/exp (exp's error taxonomy table
// must name them, and exp cannot import this package); the aliases give the
// types their natural names at the call sites that raise them.
type (
	// UncalibratedError reports a prediction or optimization request the
	// twin has no calibrated model for.
	UncalibratedError = exp.UncalibratedError
	// InfeasibleError reports an optimization constraint no studied
	// configuration can meet.
	InfeasibleError = exp.InfeasibleError
)

// Axis names one modeled parameter dimension.
type Axis int

// The six modeled axes: the paper's four communication parameters plus page
// size and degree of clustering.
const (
	AxisHostOverhead Axis = iota
	AxisOccupancy
	AxisIOBw
	AxisInterrupt
	AxisPageSize
	AxisClustering
	NumAxes
)

// CommAxes lists the four communication-parameter axes (the optimizer's
// search space; page size and clustering are architectural choices, not
// per-message costs).
var CommAxes = []Axis{AxisHostOverhead, AxisOccupancy, AxisIOBw, AxisInterrupt}

// Param returns the axis's cmd/sweep parameter name.
func (a Axis) Param() string {
	switch a {
	case AxisHostOverhead:
		return "overhead"
	case AxisOccupancy:
		return "occupancy"
	case AxisIOBw:
		return "iobw"
	case AxisInterrupt:
		return "interrupt"
	case AxisPageSize:
		return "pagesize"
	case AxisClustering:
		return "clustering"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// String names the axis for diagnostics.
func (a Axis) String() string { return a.Param() }

// Value reads the axis's coordinate from a configuration — the exported
// read side of the axis mapping, for callers labeling cells by the swept
// parameter (cmd/sweep's prune log).
func (a Axis) Value(cfg *svmsim.Config) float64 { return axisValue(cfg, a) }

// AxisForParam resolves a cmd/sweep parameter name to its axis.
func AxisForParam(param string) (Axis, bool) {
	for a := Axis(0); a < NumAxes; a++ {
		if a.Param() == param {
			return a, true
		}
	}
	return 0, false
}

// anchorSeeds are the calibration anchor values per axis: the extremes of
// each studied range (so Table 3's worst-vs-best sensitivities are
// anchor-exact) plus at most one interior point to expose curvature to the
// leave-one-out residual. The baseline value joins the set automatically
// (it is free — the base cell is simulated anyway), so every remaining
// sweep point is bracketed by anchors and interpolated, never extrapolated.
var anchorSeeds = [NumAxes][]float64{
	AxisHostOverhead: {0, 500, 5000},
	AxisOccupancy:    {0, 500, 2000},
	AxisIOBw:         {0.2, 0.5, 2.0},
	AxisInterrupt:    {0, 1000, 10000},
	AxisPageSize:     {1 << 10, 4 << 10, 16 << 10},
	AxisClustering:   {1, 4, 8},
}

// axisValue reads the axis coordinate from a configuration.
func axisValue(cfg *svmsim.Config, a Axis) float64 {
	switch a {
	case AxisHostOverhead:
		return float64(cfg.Net.HostOverheadCycles)
	case AxisOccupancy:
		return float64(cfg.Net.NIOccupancyCycles)
	case AxisIOBw:
		return cfg.Net.IOBytesPerCycle
	case AxisInterrupt:
		return float64(cfg.IntrHalfCostCycles)
	case AxisPageSize:
		return float64(cfg.Proto.PageBytes)
	case AxisClustering:
		return float64(cfg.ProcsPerNode)
	}
	return 0
}

// axisApply writes the axis coordinate into a configuration.
func axisApply(cfg *svmsim.Config, a Axis, v float64) {
	switch a {
	case AxisHostOverhead:
		cfg.Net.HostOverheadCycles = uint64(v)
	case AxisOccupancy:
		cfg.Net.NIOccupancyCycles = uint64(v)
	case AxisIOBw:
		cfg.Net.IOBytesPerCycle = v
	case AxisInterrupt:
		cfg.IntrHalfCostCycles = uint64(v)
	case AxisPageSize:
		cfg.Proto.PageBytes = int(v)
	case AxisClustering:
		cfg.ProcsPerNode = int(v)
	}
}

// axisPos maps an axis coordinate to its interpolation position: identity
// for the communication parameters (the paper's response curves are
// near-linear in the parameter itself), log2 for page size and clustering
// (whose studied ranges are geometric).
func axisPos(a Axis, v float64) float64 {
	if a == AxisPageSize || a == AxisClustering {
		return math.Log2(v)
	}
	return v
}

// modeName renders the protocol for wire documents and error messages.
func modeName(aurc bool) string {
	if aurc {
		return "aurc"
	}
	return "hlrc"
}

// parseMode parses a wire-spec protocol selection (empty means HLRC).
func parseMode(mode string) (bool, error) {
	switch strings.ToLower(mode) {
	case "", "hlrc":
		return false, nil
	case "aurc":
		return true, nil
	}
	return false, fmt.Errorf("twin: unknown protocol mode %q (want hlrc or aurc)", mode)
}

// modelKey identifies one calibrated model.
type modelKey struct {
	workload string
	aurc     bool
}

// Twin holds the calibrated models, one per (workload, protocol). Models
// are immutable once published: incremental calibration builds a new model
// value and swaps the pointer, so Predict runs lock-free against a
// consistent snapshot after one RLock'd map read.
type Twin struct {
	mu           sync.RWMutex
	models       map[modelKey]*Model
	calibrations uint64
}

// New creates an empty twin; calibrate models with Calibrate (or lazily via
// PredictCalibrating / OptimizeCalibrating).
func New() *Twin {
	return &Twin{models: make(map[modelKey]*Model)}
}

// Calibrations returns the number of calibration passes that built or
// extended a model (the svmsimd twin_calibrations_total metric).
func (t *Twin) Calibrations() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.calibrations
}

// Model returns the calibrated model for a workload/protocol, if any.
func (t *Twin) Model(workload string, aurc bool) (*Model, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	m, ok := t.models[modelKey{workload, aurc}]
	return m, ok
}

// anchorPoint is one calibrated sample on an axis.
type anchorPoint struct {
	value float64
	pos   float64
	time  uint64
	run   *svmsim.RunStats
}

// axisModel is the calibrated response curve of one axis: anchor points
// sorted by position, the leave-one-out residual, and the per-event cost
// the chord implies (reporting only — predictions interpolate the curve).
type axisModel struct {
	points       []anchorPoint
	residual     float64
	costPerEvent float64
	events       uint64
}

// Model is one workload/protocol's calibrated closed-form model. Immutable
// after calibration; the Twin republishes a fresh value to add axes.
type Model struct {
	workload string
	aurc     bool
	// base is the calibrated baseline configuration (the suite's Base with
	// the protocol applied); uni its uniprocessor derivation (protocol
	// reset to the suite default, matching exp's speedup denominator).
	base svmsim.Config
	uni  svmsim.Config
	// baseTime/uniTime are the measured cycles at those two anchors.
	baseTime uint64
	uniTime  uint64
	baseRun  *svmsim.RunStats
	uniRun   *svmsim.RunStats
	profile  stats.EventProfile
	axes     [NumAxes]*axisModel
}

// Workload returns the model's workload name.
func (m *Model) Workload() string { return m.workload }

// Mode returns "hlrc" or "aurc".
func (m *Model) Mode() string { return modeName(m.aurc) }

// CalibratedAxes returns the axes this model can interpolate, in axis order.
func (m *Model) CalibratedAxes() []Axis {
	var out []Axis
	for a := Axis(0); a < NumAxes; a++ {
		if m.axes[a] != nil {
			out = append(out, a)
		}
	}
	return out
}

// axisEvents maps an axis to the event count its cost scales with (finding
// 4's correlations; finding 3 for AURC occupancy). Reporting only.
func (m *Model) axisEvents(a Axis) uint64 {
	p := m.profile
	switch a {
	case AxisHostOverhead:
		return p.Msgs
	case AxisOccupancy:
		if m.aurc {
			return p.Msgs + p.UpdateWords
		}
		return p.Msgs
	case AxisIOBw:
		return p.Bytes
	case AxisInterrupt:
		return p.PageFetches + p.RemoteLocks
	case AxisPageSize:
		return p.PageFetches
	case AxisClustering:
		return p.Msgs
	}
	return 0
}

// anchorValues assembles the axis's calibration values: the seeds filtered
// for validity on this model's topology, plus the baseline value, sorted
// and deduplicated.
func (m *Model) anchorValues(a Axis) []float64 {
	vals := append([]float64(nil), anchorSeeds[a]...)
	vals = append(vals, axisValue(&m.base, a))
	sort.Float64s(vals)
	out := vals[:0]
	for i, v := range vals {
		if i > 0 && v == vals[i-1] {
			continue
		}
		if a == AxisClustering {
			// Clustering anchors must divide the processor count.
			n := int(v)
			if n <= 0 || n > m.base.Procs || m.base.Procs%n != 0 {
				continue
			}
		}
		out = append(out, v)
	}
	return out
}

// Calibrate builds (or extends) the model for a workload/protocol from
// anchor simulations run through the suite — sharing its memo and disk
// cache, so a warm cache calibrates without simulating. axes selects which
// dimensions to calibrate; none means all six. The returned model is the
// published snapshot. Anchor failures abort calibration with the cell's
// error.
func (t *Twin) Calibrate(s *exp.Suite, w svmsim.Workload, aurc bool, axes ...Axis) (*Model, error) {
	if len(axes) == 0 {
		axes = make([]Axis, NumAxes)
		for a := Axis(0); a < NumAxes; a++ {
			axes[a] = a
		}
	}
	return t.calibrate(s, w, aurc, axes)
}

// ensureBase publishes a model holding only the base and uniprocessor
// anchors — enough for activeAxes to decide what a request actually needs —
// without paying for any axis sweep.
func (t *Twin) ensureBase(s *exp.Suite, w svmsim.Workload, aurc bool) (*Model, error) {
	if m, ok := t.Model(w.Name, aurc); ok {
		return m, nil
	}
	return t.calibrate(s, w, aurc, nil)
}

// calibrate is the shared calibration path; axes is the explicit (possibly
// empty) set of dimensions to add.
func (t *Twin) calibrate(s *exp.Suite, w svmsim.Workload, aurc bool, axes []Axis) (*Model, error) {
	base := s.Base()
	if aurc {
		base.Proto.Mode = svmsim.AURC
	}
	uni := svmsim.Uniprocessor(s.Base())

	t.mu.RLock()
	prev := t.models[modelKey{w.Name, aurc}]
	t.mu.RUnlock()

	m := &Model{workload: w.Name, aurc: aurc, base: base, uni: uni}
	var missing []Axis
	if prev != nil && prev.base == base {
		*m = *prev
		for _, a := range axes {
			if m.axes[a] == nil {
				missing = append(missing, a)
			}
		}
		if len(missing) == 0 {
			return prev, nil
		}
	} else {
		missing = axes
	}

	// Gather every anchor cell and warm them in one parallel batch.
	cells := []exp.Cell{{Cfg: base, W: w}, {Cfg: uni, W: w}}
	for _, a := range missing {
		for _, v := range m.anchorValues(a) {
			cfg := base
			axisApply(&cfg, a, v)
			cells = append(cells, exp.Cell{Cfg: cfg, W: w})
		}
	}
	if err := s.Runner().Run(cells); err != nil {
		return nil, fmt.Errorf("twin: calibrating %s/%s: %w", w.Name, modeName(aurc), err)
	}

	baseRun, err := s.RunCell(exp.Cell{Cfg: base, W: w})
	if err != nil {
		return nil, fmt.Errorf("twin: calibrating %s/%s: %w", w.Name, modeName(aurc), err)
	}
	uniRun, err := s.RunCell(exp.Cell{Cfg: uni, W: w})
	if err != nil {
		return nil, fmt.Errorf("twin: calibrating %s/%s: %w", w.Name, modeName(aurc), err)
	}
	m.baseRun, m.baseTime = baseRun, baseRun.Cycles
	m.uniRun, m.uniTime = uniRun, uniRun.Cycles
	m.profile = baseRun.Profile()

	for _, a := range missing {
		ax := &axisModel{events: m.axisEvents(a)}
		for _, v := range m.anchorValues(a) {
			cfg := base
			axisApply(&cfg, a, v)
			run, err := s.RunCell(exp.Cell{Cfg: cfg, W: w})
			if err != nil {
				return nil, fmt.Errorf("twin: calibrating %s/%s %s=%g: %w", w.Name, modeName(aurc), a, v, err)
			}
			ax.points = append(ax.points, anchorPoint{value: v, pos: axisPos(a, v), time: run.Cycles, run: run})
		}
		ax.residual = looResidual(ax.points)
		ax.costPerEvent = chordCostPerEvent(ax.points, ax.events)
		m.axes[a] = ax
	}

	t.mu.Lock()
	t.models[modelKey{w.Name, aurc}] = m
	t.calibrations++
	t.mu.Unlock()
	return m, nil
}

// looResidual is the leave-one-out curvature estimate: drop each interior
// anchor, predict its time from the chord through its neighbors, and return
// the worst relative error. It bounds how wrong linear interpolation can be
// between anchors on this axis.
func looResidual(points []anchorPoint) float64 {
	var worst float64
	for i := 1; i < len(points)-1; i++ {
		lo, hi := points[i-1], points[i+1]
		if hi.pos == lo.pos || points[i].time == 0 {
			continue
		}
		frac := (points[i].pos - lo.pos) / (hi.pos - lo.pos)
		pred := float64(lo.time) + frac*(float64(hi.time)-float64(lo.time))
		rel := math.Abs(pred-float64(points[i].time)) / float64(points[i].time)
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

// chordCostPerEvent reports the whole-range chord slope normalized by the
// axis's calibrated event count: cycles of execution time per unit of the
// parameter per event. Negative for I/O bandwidth (more bandwidth, less
// time). Reporting only; predictions interpolate the anchors directly.
func chordCostPerEvent(points []anchorPoint, events uint64) float64 {
	if len(points) < 2 || events == 0 {
		return 0
	}
	lo, hi := points[0], points[len(points)-1]
	if hi.value == lo.value {
		return 0
	}
	return (float64(hi.time) - float64(lo.time)) / (hi.value - lo.value) / float64(events)
}
