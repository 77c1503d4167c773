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
// Calibration runs its anchors as one exp.Suite.RunCells batch, so it
// shares the suite's memo, singleflight and persistent disk cache:
// calibrating against a warm cache simulates nothing, and calibrating twice
// from the same cache yields byte-identical coefficients (test-enforced).
// On top of the model
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

// CommAxes lists the four communication-parameter axes (the optimizer's
// search space; page size and clustering are architectural choices, not
// per-message costs).
var CommAxes = []exp.Axis{exp.AxisHostOverhead, exp.AxisOccupancy, exp.AxisIOBw, exp.AxisInterrupt}

// anchorSeeds are the interior calibration anchors, one per axis, exposing
// curvature to the leave-one-out residual. anchorValues adds the two ends
// of each studied range (so Table 3's best-vs-degraded sensitivities are
// anchor-exact) and the baseline value (free — the base cell is simulated
// anyway), so every remaining sweep point is bracketed by anchors and
// interpolated, never extrapolated.
var anchorSeeds = [exp.NumAxes]float64{
	exp.AxisHostOverhead: 500,
	exp.AxisOccupancy:    500,
	exp.AxisIOBw:         0.5,
	exp.AxisInterrupt:    1000,
	exp.AxisPageSize:     4 << 10,
	exp.AxisClustering:   4,
}

// axisPos maps an axis coordinate to its interpolation position: identity
// for the communication parameters (the paper's response curves are
// near-linear in the parameter itself), log2 for page size and clustering
// (whose studied ranges are geometric).
func axisPos(a exp.Axis, v float64) float64 {
	if a == exp.AxisPageSize || a == exp.AxisClustering {
		return math.Log2(v)
	}
	return v
}

// modelKey identifies one calibrated model.
type modelKey struct {
	workload string
	mode     svmsim.Mode
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
func (t *Twin) Model(workload string, mode svmsim.Mode) (*Model, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	m, ok := t.models[modelKey{workload, mode}]
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
	mode     svmsim.Mode
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
	axes     [exp.NumAxes]*axisModel
}

// Mode returns the protocol's wire spelling (see exp.Modes).
func (m *Model) Mode() string { return exp.Modes.Name(m.mode) }

// CalibratedAxes returns the axes this model can interpolate, in axis order.
func (m *Model) CalibratedAxes() []exp.Axis {
	var out []exp.Axis
	for a := exp.Axis(0); a < exp.NumAxes; a++ {
		if m.axes[a] != nil {
			out = append(out, a)
		}
	}
	return out
}

// axisEvents maps an axis to the event count its cost scales with (finding
// 4's correlations; finding 3 for AURC occupancy). Reporting only.
func (m *Model) axisEvents(a exp.Axis) uint64 {
	p := m.profile
	switch a {
	case exp.AxisHostOverhead:
		return p.Msgs
	case exp.AxisOccupancy:
		if m.mode == svmsim.AURC {
			return p.Msgs + p.UpdateWords
		}
		return p.Msgs
	case exp.AxisIOBw:
		return p.Bytes
	case exp.AxisInterrupt:
		return p.PageFetches + p.RemoteLocks
	case exp.AxisPageSize:
		return p.PageFetches
	case exp.AxisClustering:
		return p.Msgs
	}
	return 0
}

// anchorValues assembles the axis's calibration values: the ends of its
// studied range, its interior seed and the baseline value, sorted,
// deduplicated and filtered for validity on this model's topology.
func (m *Model) anchorValues(a exp.Axis) []float64 {
	pts := a.Points()
	vals := []float64{pts[0], anchorSeeds[a], pts[len(pts)-1], a.Value(&m.base)}
	sort.Float64s(vals)
	out := vals[:0]
	for i, v := range vals {
		if i > 0 && v == vals[i-1] {
			continue
		}
		if a == exp.AxisClustering {
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
func (t *Twin) Calibrate(s *exp.Suite, w svmsim.Workload, mode svmsim.Mode, axes ...exp.Axis) (*Model, error) {
	if len(axes) == 0 {
		axes = make([]exp.Axis, exp.NumAxes)
		for a := range axes {
			axes[a] = exp.Axis(a)
		}
	}
	return t.calibrate(s, w, mode, axes)
}

// ensureBase publishes a model holding only the base and uniprocessor
// anchors — enough for activeAxes to decide what a request actually needs —
// without paying for any axis sweep.
func (t *Twin) ensureBase(s *exp.Suite, w svmsim.Workload, mode svmsim.Mode) (*Model, error) {
	if m, ok := t.Model(w.Name, mode); ok {
		return m, nil
	}
	return t.calibrate(s, w, mode, nil)
}

// calibrate is the shared calibration path; axes is the explicit (possibly
// empty) set of dimensions to add.
func (t *Twin) calibrate(s *exp.Suite, w svmsim.Workload, mode svmsim.Mode, axes []exp.Axis) (*Model, error) {
	base := s.Base()
	base.Proto.Mode = mode
	uni := svmsim.Uniprocessor(s.Base())

	t.mu.RLock()
	prev := t.models[modelKey{w.Name, mode}]
	t.mu.RUnlock()

	m := &Model{workload: w.Name, mode: mode, base: base, uni: uni}
	var missing []exp.Axis
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

	// Every anchor cell runs in one parallel batch: the base and
	// uniprocessor anchors, then each missing axis's anchors in value order.
	cells := []exp.Cell{{Cfg: base, W: w}, {Cfg: uni, W: w}}
	values := make([][]float64, len(missing))
	for k, a := range missing {
		values[k] = m.anchorValues(a)
		for _, v := range values[k] {
			cfg := base
			a.Set(&cfg, v)
			cells = append(cells, exp.Cell{Cfg: cfg, W: w})
		}
	}
	runs, errs := s.RunCells(cells)
	if err := exp.FirstErr(errs); err != nil {
		return nil, fmt.Errorf("twin: calibrating %s/%s: %w", w.Name, m.Mode(), err)
	}
	m.baseRun, m.baseTime = runs[0], runs[0].Cycles
	m.uniRun, m.uniTime = runs[1], runs[1].Cycles
	m.profile = runs[0].Profile()

	runs = runs[2:]
	for k, a := range missing {
		ax := &axisModel{events: m.axisEvents(a)}
		for _, v := range values[k] {
			ax.points = append(ax.points, anchorPoint{value: v, pos: axisPos(a, v), time: runs[0].Cycles, run: runs[0]})
			runs = runs[1:]
		}
		ax.residual = looResidual(ax.points)
		ax.costPerEvent = chordCostPerEvent(ax.points, ax.events)
		m.axes[a] = ax
	}

	t.mu.Lock()
	t.models[modelKey{w.Name, mode}] = m
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
