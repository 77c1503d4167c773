package twin

import (
	"encoding/json"

	"svmsim/internal/exp"
	"svmsim/internal/stats"
)

// Coefficients is the canonical wire form of a calibrated model: everything
// a prediction depends on, in one deterministic document. Calibrating twice
// from the same simulation cache must encode byte-identically
// (test-enforced) — the coefficients are pure functions of the anchor
// results, and the anchors are content-addressed cells.
type Coefficients struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	// BaseCycles/UniCycles are the measured baseline and uniprocessor
	// anchor times.
	BaseCycles uint64 `json:"base_cycles"`
	UniCycles  uint64 `json:"uni_cycles"`
	// Profile is the baseline event profile the per-event costs normalize
	// against.
	Profile stats.EventProfile `json:"profile"`
	// Axes holds one calibrated curve per modeled axis, in axis order.
	Axes []AxisCoefficients `json:"axes"`
}

// AxisCoefficients is one axis's calibrated curve.
type AxisCoefficients struct {
	Param string `json:"param"`
	// Values and Cycles are the anchor coordinates and their measured
	// times, sorted by position.
	Values []float64 `json:"values"`
	Cycles []uint64  `json:"cycles"`
	// Residual is the leave-one-out relative error estimate.
	Residual float64 `json:"residual"`
	// CostPerEvent/Events are finding 4's correlation made explicit (see
	// Sensitivity).
	CostPerEvent float64 `json:"cost_per_event"`
	Events       uint64  `json:"events"`
}

// Coefficients extracts the model's calibrated coefficients.
func (m *Model) Coefficients() Coefficients {
	c := Coefficients{
		Workload:   m.workload,
		Mode:       m.Mode(),
		BaseCycles: m.baseTime,
		UniCycles:  m.uniTime,
		Profile:    m.profile,
	}
	for a := exp.Axis(0); a < exp.NumAxes; a++ {
		ax := m.axes[a]
		if ax == nil {
			continue
		}
		ac := AxisCoefficients{
			Param:        a.String(),
			Residual:     ax.residual,
			CostPerEvent: ax.costPerEvent,
			Events:       ax.events,
		}
		for _, p := range ax.points {
			ac.Values = append(ac.Values, p.value)
			ac.Cycles = append(ac.Cycles, p.time)
		}
		c.Axes = append(c.Axes, ac)
	}
	return c
}

// Encode renders the coefficients in the repository's canonical document
// style (two-space indented JSON, trailing newline), the byte-identity unit
// of the calibration-determinism guarantee.
func (m *Model) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m.Coefficients(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
