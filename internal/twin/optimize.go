package twin

import (
	"fmt"

	"svmsim"
	"svmsim/internal/exp"
)

// OptimizeSpec is the /v1/twin/optimize request body: find the cheapest
// communication-parameter configuration whose predicted speedup meets the
// constraint.
type OptimizeSpec struct {
	// Schema is the wire-schema version; zero means current.
	Schema int `json:"schema,omitempty"`
	// Workload names one of the paper's applications.
	Workload string `json:"workload"`
	// Mode selects the protocol, spelled as in exp.Modes.
	Mode string `json:"mode,omitempty"`
	// MinSpeedup is the constraint: predicted speedup must be ≥ this.
	MinSpeedup float64 `json:"min_speedup"`
}

// Sensitivity ranks one parameter's end-performance impact: the predicted
// slowdown from its best studied value to its worst (Table 3's metric),
// plus the per-event cost the calibrated chord implies and the event count
// it scales with (finding 4's correlation, made explicit).
type Sensitivity struct {
	Param string `json:"param"`
	// SlowdownPct is (T(worst) − T(best)) / T(best) · 100 over the axis's
	// calibrated anchors, every other parameter at baseline.
	SlowdownPct float64 `json:"slowdown_pct"`
	// CostPerEvent is cycles of execution time per unit of the parameter
	// per correlated event (negative for I/O bandwidth: more is faster).
	CostPerEvent float64 `json:"cost_per_event"`
	// Events is the calibrated event count the cost scales with.
	Events uint64 `json:"events"`
}

// Choice is the optimizer's answer: the cheapest studied configuration
// meeting the constraint, as a directly submittable cell spec, with its
// prediction, normalized hardware cost, and the workload's sensitivity
// ranking.
type Choice struct {
	// Spec reproduces the chosen cell on any consumer of the wire schema
	// (POST it to /v1/cells to simulate the twin's recommendation).
	Spec exp.CellSpec `json:"spec"`
	// Prediction is the twin's forecast for the chosen configuration.
	Prediction Prediction `json:"prediction"`
	// Cost is the summed per-axis hardware aggressiveness in [0, 4]: 0 is
	// every parameter at its cheapest studied value, 4 at its most
	// aggressive. The optimizer minimizes it.
	Cost float64 `json:"cost"`
	// Evaluated counts the parameter combinations scored.
	Evaluated int `json:"evaluated"`
	// Sensitivities ranks the communication parameters by impact,
	// strongest first.
	Sensitivities []Sensitivity `json:"sensitivities"`
}

// axisCost is the normalized hardware aggressiveness of choosing value v on
// axis a: 0 for the cheapest studied value (highest overhead, lowest
// bandwidth), 1 for the most aggressive. Faster hardware costs more — the
// optimizer's "cheapest config achieving speedup ≥ S" minimizes the sum.
func axisCost(a exp.Axis, v float64) float64 {
	points := a.Points()
	lo, hi := points[0], points[len(points)-1]
	if hi == lo {
		return 0
	}
	frac := (v - lo) / (hi - lo)
	if a.DegradesLow() {
		// The degraded low end is the cheap one.
		return frac
	}
	return 1 - frac
}

// Optimize scans the studied communication-parameter space (the sweep grids
// of the four parameters; page size and clustering stay at baseline) for
// the cheapest configuration whose predicted speedup is ≥ the constraint.
// All four communication axes must be calibrated (*UncalibratedError
// otherwise); an unsatisfiable constraint returns *InfeasibleError carrying
// the best achievable prediction. Ties on cost break toward the higher
// predicted speedup, then toward the earlier grid point — determinism a
// test enforces.
func (t *Twin) Optimize(spec OptimizeSpec) (Choice, error) {
	mode, err := exp.Modes.Parse(spec.Mode)
	if err != nil {
		return Choice{}, fmt.Errorf("twin: %w", err)
	}
	m, ok := t.Model(spec.Workload, mode)
	if !ok {
		return Choice{}, &UncalibratedError{Workload: spec.Workload, Mode: exp.Modes.Name(mode), Reason: "no calibration has run"}
	}
	for _, a := range CommAxes {
		if m.axes[a] == nil {
			return Choice{}, &UncalibratedError{Workload: m.workload, Mode: m.Mode(), Reason: "axis " + a.String() + " is not calibrated"}
		}
	}

	// Precompute each axis's time delta and cost at every grid point; the
	// scan is then pure additions over small stack arrays.
	var grids, deltas, costs [4][]float64
	baseT := float64(m.baseTime)
	for i, a := range CommAxes {
		grids[i] = a.Points()
		deltas[i] = make([]float64, len(grids[i]))
		costs[i] = make([]float64, len(grids[i]))
		for j, v := range grids[i] {
			ta, _, _, ok := m.axes[a].at(axisPos(a, v))
			if !ok {
				return Choice{}, &UncalibratedError{Workload: m.workload, Mode: m.Mode(),
					Reason: fmt.Sprintf("%s grid point %g outside the calibrated range", a, v)}
			}
			deltas[i][j] = ta - baseT
			costs[i][j] = axisCost(a, v)
		}
	}

	uni := float64(m.uniTime)
	var best [4]int
	bestCost, bestSpeedup := -1.0, 0.0
	overallBest := 0.0
	evaluated := 0
	for i0 := range grids[0] {
		for i1 := range grids[1] {
			for i2 := range grids[2] {
				for i3 := range grids[3] {
					evaluated++
					total := baseT + deltas[0][i0] + deltas[1][i1] + deltas[2][i2] + deltas[3][i3]
					if total < 1 {
						total = 1
					}
					sp := uni / total
					if sp > overallBest {
						overallBest = sp
					}
					if sp < spec.MinSpeedup {
						continue
					}
					cost := costs[0][i0] + costs[1][i1] + costs[2][i2] + costs[3][i3]
					if bestCost < 0 || cost < bestCost || (cost == bestCost && sp > bestSpeedup) {
						bestCost, bestSpeedup = cost, sp
						best = [4]int{i0, i1, i2, i3}
					}
				}
			}
		}
	}
	if bestCost < 0 {
		return Choice{}, &InfeasibleError{Workload: m.workload, Mode: m.Mode(),
			MinSpeedup: spec.MinSpeedup, Best: overallBest}
	}

	cfg := m.base
	for i, a := range CommAxes {
		a.Set(&cfg, grids[i][best[i]])
	}
	pred, _, err := m.predict(cfg)
	if err != nil {
		return Choice{}, err
	}
	cellSpec, ok := exp.SpecFromCell(exp.Cell{Cfg: cfg, W: svmsim.Workload{Name: m.workload}})
	if !ok {
		return Choice{}, &UncalibratedError{Workload: m.workload, Mode: m.Mode(), Reason: "chosen configuration exceeds the wire schema"}
	}
	return Choice{
		Spec:          cellSpec,
		Prediction:    pred,
		Cost:          bestCost,
		Evaluated:     evaluated,
		Sensitivities: m.Sensitivities(),
	}, nil
}

// OptimizeCalibrating optimizes, first calibrating the four communication
// axes from anchor simulations run through the suite if they are missing —
// the serving layer's entry point (see PredictCalibrating).
func (t *Twin) OptimizeCalibrating(s *exp.Suite, spec OptimizeSpec) (Choice, error) {
	mode, err := exp.Modes.Parse(spec.Mode)
	if err != nil {
		return Choice{}, fmt.Errorf("twin: %w", err)
	}
	w, err := exp.WorkloadByName(spec.Workload)
	if err != nil {
		return Choice{}, err
	}
	if _, err := t.Calibrate(s, w, mode, CommAxes...); err != nil {
		return Choice{}, err
	}
	spec.Workload = w.Name
	return t.Optimize(spec)
}

// Sensitivities ranks the calibrated axes by their worst-vs-best predicted
// slowdown, strongest first (stable on ties, axis order breaking them). The
// metric is exactly Table 3's: slowdown from the best end of the studied
// range to the degraded end — and since range endpoints are calibration
// anchors, these numbers equal the simulator's Table 3 bit for bit.
func (m *Model) Sensitivities() []Sensitivity {
	var out []Sensitivity
	for a := exp.Axis(0); a < exp.NumAxes; a++ {
		ax := m.axes[a]
		if ax == nil || len(ax.points) < 2 {
			continue
		}
		bestT, worstT := ax.points[0].time, ax.points[len(ax.points)-1].time
		if a.DegradesLow() {
			bestT, worstT = worstT, bestT
		}
		var pct float64
		if bestT > 0 {
			pct = (float64(worstT) - float64(bestT)) / float64(bestT) * 100
		}
		out = append(out, Sensitivity{
			Param:        a.String(),
			SlowdownPct:  pct,
			CostPerEvent: ax.costPerEvent,
			Events:       ax.events,
		})
	}
	// Insertion sort keeps equal-impact axes in axis order (deterministic).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].SlowdownPct > out[j-1].SlowdownPct; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
