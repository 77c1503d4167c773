package twin

import (
	"math"

	"svmsim"
	"svmsim/internal/exp"
	"svmsim/internal/stats"
)

// ciFloor is the baseline relative confidence half-width of any
// interpolated prediction: even an axis whose leave-one-out residual is
// zero (a two-anchor curve exposes no curvature) is not simulated truth.
const ciFloor = 0.01

// Prediction is one twin answer: predicted parallel execution time, the
// speedup it implies, and a relative confidence interval. Anchor marks
// predictions that coincide with a calibration anchor — those return the
// measured simulation time exactly (RelCI 0). The JSON shape is the
// /v1/twin/predict response body.
type Prediction struct {
	Workload string `json:"workload"`
	// Mode is the protocol, spelled as in exp.Modes.
	Mode string `json:"mode"`
	// Cycles is the predicted parallel execution time.
	Cycles uint64 `json:"predicted_cycles"`
	// UniCycles is the calibrated uniprocessor time (the speedup
	// denominator's numerator — speedup = UniCycles / Cycles).
	UniCycles uint64 `json:"uniprocessor_cycles"`
	// Speedup is the predicted end speedup.
	Speedup float64 `json:"predicted_speedup"`
	// RelCI is the relative confidence half-width: the twin expects the
	// simulated time within Cycles·(1 ± RelCI). Zero exactly when Anchor.
	RelCI float64 `json:"rel_ci"`
	// Anchor marks a calibration-anchor hit (simulated truth, not a model
	// estimate).
	Anchor bool `json:"anchor,omitempty"`
}

// detail carries the internal placement of a prediction, for PredictRun's
// template choice. Stack-only.
type detail struct {
	uni        bool
	nActive    int
	activeAxis exp.Axis // meaningful only when nActive == 1
	activePos  float64
}

// Predict answers one cell from the calibrated model. It never simulates:
// an uncalibrated workload/protocol/axis, a configuration deviating from
// the calibrated baseline outside the modeled axes, or a coordinate outside
// the studied range returns *UncalibratedError. The hot path allocates
// nothing (benchmark-enforced): one RLock'd map read, stack arithmetic, a
// by-value result.
func (t *Twin) Predict(c exp.Cell) (Prediction, error) {
	t.mu.RLock()
	m := t.models[modelKey{c.W.Name, c.Cfg.Proto.Mode}]
	t.mu.RUnlock()
	if m == nil {
		return Prediction{}, &UncalibratedError{Workload: c.W.Name, Mode: exp.Modes.Name(c.Cfg.Proto.Mode), Reason: "no calibration has run"}
	}
	p, _, err := m.predict(c.Cfg)
	return p, err
}

// predict is the model-level hot path shared by Predict and PredictRun.
func (m *Model) predict(cfg svmsim.Config) (Prediction, detail, error) {
	if cfg == m.uni {
		return Prediction{
			Workload: m.workload, Mode: m.Mode(),
			Cycles: m.uniTime, UniCycles: m.uniTime, Speedup: 1, Anchor: true,
		}, detail{uni: true}, nil
	}

	// Recompose the request from the baseline plus the six modeled
	// coordinates: anything else differing (interrupt policy, request
	// handling, topology, fault plans, ...) is outside the model.
	composed := m.base
	for a := exp.Axis(0); a < exp.NumAxes; a++ {
		a.Set(&composed, a.Value(&cfg))
	}
	if composed != cfg {
		return Prediction{}, detail{}, &UncalibratedError{
			Workload: m.workload, Mode: m.Mode(),
			Reason: "configuration deviates from the calibrated baseline outside the modeled axes",
		}
	}

	var d detail
	exact := false
	var exactTime uint64
	baseT := float64(m.baseTime)
	total := baseT
	var sumSq, sumAbs, maxAbs float64
	for a := exp.Axis(0); a < exp.NumAxes; a++ {
		v := a.Value(&cfg)
		if v == a.Value(&m.base) {
			continue
		}
		ax := m.axes[a]
		if ax == nil {
			return Prediction{}, detail{}, &UncalibratedError{
				Workload: m.workload, Mode: m.Mode(),
				Reason: "axis " + a.String() + " is not calibrated",
			}
		}
		pos := axisPos(a, v)
		ta, anchorTime, onAnchor, ok := ax.at(pos)
		if !ok {
			return Prediction{}, detail{}, &UncalibratedError{
				Workload: m.workload, Mode: m.Mode(),
				Reason: a.String() + " value outside the studied range",
			}
		}
		d.nActive++
		d.activeAxis, d.activePos = a, pos
		total += ta - baseT
		delta := math.Abs(ta - baseT)
		sumAbs += delta
		if delta > maxAbs {
			maxAbs = delta
		}
		if onAnchor {
			exact, exactTime = true, anchorTime
		} else {
			sumSq += ax.residual * ax.residual
		}
	}

	p := Prediction{Workload: m.workload, Mode: m.Mode(), UniCycles: m.uniTime}
	switch {
	case d.nActive == 0:
		// The calibrated baseline itself.
		p.Cycles, p.Anchor = m.baseTime, true
	case d.nActive == 1 && exact:
		// A single-axis anchor: return the measured time bit-for-bit.
		p.Cycles, p.Anchor = exactTime, true
	default:
		if total < 1 {
			total = 1
		}
		p.Cycles = uint64(total + 0.5)
		// Confidence: a floor (interpolation is never truth), the active
		// axes' leave-one-out residuals in quadrature, and — for composed
		// multi-axis predictions — an interaction term charging every
		// non-dominant axis delta, since additive composition ignores how
		// parameter costs overlap.
		ci := ciFloor + math.Sqrt(sumSq)
		if d.nActive > 1 {
			ci += (sumAbs - maxAbs) / total
		}
		p.RelCI = ci
	}
	p.Speedup = float64(m.uniTime) / float64(p.Cycles)
	return p, d, nil
}

// ShouldSimulate is the twin-guided pruning decision for this prediction:
// true when a sweep should pay for the real simulation, false when the
// model's answer is decision-grade. With a decision target (target > 0, a
// speedup threshold someone will act on), simulate exactly when the
// confidence interval straddles the target — the model already decides
// cells that are clearly above or clearly below. With no target, simulate
// when the relative confidence interval exceeds eps. Anchors are simulated
// truth and never need re-simulation.
func (p Prediction) ShouldSimulate(target, eps float64) bool {
	if p.Anchor {
		return false
	}
	if target > 0 {
		lo := p.Speedup * (1 - p.RelCI)
		hi := p.Speedup * (1 + p.RelCI)
		return lo <= target && target <= hi
	}
	return p.RelCI > eps
}

// at evaluates the axis curve at pos: the interpolated time, plus the exact
// measured cycles when pos sits on an anchor. ok reports pos inside the
// calibrated range.
func (ax *axisModel) at(pos float64) (t float64, anchor uint64, onAnchor, ok bool) {
	pts := ax.points
	n := len(pts)
	if n == 0 || pos < pts[0].pos || pos > pts[n-1].pos {
		return 0, 0, false, false
	}
	for i := 0; i < n; i++ {
		if pos == pts[i].pos {
			return float64(pts[i].time), pts[i].time, true, true
		}
	}
	for i := 0; i < n-1; i++ {
		if pos > pts[i].pos && pos < pts[i+1].pos {
			frac := (pos - pts[i].pos) / (pts[i+1].pos - pts[i].pos)
			return float64(pts[i].time) + frac*(float64(pts[i+1].time)-float64(pts[i].time)), 0, false, true
		}
	}
	return 0, 0, false, false
}

// nearest returns the anchor run closest to pos (the lower one on ties).
func (ax *axisModel) nearest(pos float64) *svmsim.RunStats {
	best := ax.points[0].run
	bestDist := math.Abs(pos - ax.points[0].pos)
	for _, p := range ax.points[1:] {
		if d := math.Abs(pos - p.pos); d < bestDist {
			best, bestDist = p.run, d
		}
	}
	return best
}

// PredictRun materializes a prediction as full run statistics, the shape
// sweep tables and the wire schema consume: the nearest anchor's counters
// (exact for anchor hits; the closest measured profile otherwise) with the
// predicted execution time and the request's topology written over them. It
// never simulates; the exp.Suite.Predict seam and the report harness are
// its callers.
func (t *Twin) PredictRun(c exp.Cell) (*svmsim.RunStats, error) {
	t.mu.RLock()
	m := t.models[modelKey{c.W.Name, c.Cfg.Proto.Mode}]
	t.mu.RUnlock()
	if m == nil {
		return nil, &UncalibratedError{Workload: c.W.Name, Mode: exp.Modes.Name(c.Cfg.Proto.Mode), Reason: "no calibration has run"}
	}
	p, d, err := m.predict(c.Cfg)
	if err != nil {
		return nil, err
	}
	template := m.baseRun
	switch {
	case d.uni:
		template = m.uniRun
	case d.nActive == 1:
		template = m.axes[d.activeAxis].nearest(d.activePos)
	}
	run := cloneRun(template)
	run.Cycles = p.Cycles
	run.ProcsPerNode = c.Cfg.ProcsPerNode
	run.NodeCount = c.Cfg.Procs / c.Cfg.ProcsPerNode
	return run, nil
}

// cloneRun deep-copies run statistics so a prediction can never alias (and
// a consumer never mutate) a calibration anchor's cached result.
func cloneRun(src *svmsim.RunStats) *svmsim.RunStats {
	out := *src
	out.Procs = make([]stats.Proc, len(src.Procs))
	copy(out.Procs, src.Procs)
	return &out
}

// PredictCalibrating predicts a cell, first calibrating (from anchor
// simulations run through the suite) whatever the cell needs: the model
// itself if absent, plus any active-but-uncalibrated axes. Unlike Predict
// it may therefore simulate — it is the serving layer's entry point, where
// lazy calibration amortizes across requests; installed sweeps calibrate
// explicitly up front instead.
func (t *Twin) PredictCalibrating(s *exp.Suite, c exp.Cell) (Prediction, error) {
	// Base + uni anchors first; axes follow once we know which are active.
	m, err := t.ensureBase(s, c.W, c.Cfg.Proto.Mode)
	if err != nil {
		return Prediction{}, err
	}
	if axes, ok := m.activeAxes(c.Cfg); ok && len(axes) > 0 {
		if _, err := t.Calibrate(s, c.W, c.Cfg.Proto.Mode, axes...); err != nil {
			return Prediction{}, err
		}
	}
	return t.Predict(c)
}

// activeAxes lists the axes on which cfg deviates from the calibrated
// baseline; ok is false when cfg deviates outside the modeled axes
// entirely (no amount of calibration will cover it).
func (m *Model) activeAxes(cfg svmsim.Config) ([]exp.Axis, bool) {
	if cfg == m.uni {
		return nil, true
	}
	composed := m.base
	for a := exp.Axis(0); a < exp.NumAxes; a++ {
		a.Set(&composed, a.Value(&cfg))
	}
	if composed != cfg {
		return nil, false
	}
	var out []exp.Axis
	for a := exp.Axis(0); a < exp.NumAxes; a++ {
		if a.Value(&cfg) != a.Value(&m.base) {
			out = append(out, a)
		}
	}
	return out, true
}
