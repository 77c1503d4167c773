package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"svmsim/internal/exp"
	"svmsim/internal/twin"
)

// runTwinPruned runs a sweep with twin-guided pruning: calibrate the swept
// axis per workload (a handful of anchor simulations), then simulate only
// the cells whose prediction is not decision-grade — with -twin-target, the
// cells whose confidence interval straddles the target speedup; otherwise
// the cells whose relative confidence interval exceeds -twin-eps. Every
// other cell is filled from the analytical model and marked predicted in
// the result document (twin.predicted_cells), never written to the
// persistent cache.
func runTwinPruned(s *exp.Suite, spec exp.SweepSpec, eps, target float64) (exp.SweepResult, error) {
	wls, mode, err := s.ResolveSweep(spec)
	if err != nil {
		return exp.SweepResult{}, err
	}
	axis, _ := exp.AxisByName(spec.Param) // ResolveSweep has validated the name

	// Count real simulations from here on, calibration anchors included —
	// the honest denominator for the reduction claim. The observer the
	// suite already has (-v's Progress) keeps receiving every event, and
	// is the suite's again once the sweep returns.
	var sims atomic.Int64
	observe := s.Observe
	defer func() { s.Answer, s.Observe = nil, observe }()
	s.Observe = func(ev exp.CellEvent) {
		if ev.Source == exp.SourceSim {
			sims.Add(1)
		}
		if observe != nil {
			observe(ev)
		}
	}

	tw := twin.New()
	for _, w := range wls {
		if _, err := tw.Calibrate(s, w, mode, axis); err != nil {
			return exp.SweepResult{}, fmt.Errorf("calibrating twin for %s: %w", w.Name, err)
		}
	}

	// The prune gate: anchors and cache hits never reach this seam (the
	// suite serves memo/disk first), so every call is a genuine "simulate
	// or trust the model?" decision for an interior cell.
	var mu sync.Mutex
	var keys, labels []string
	s.Answer = func(c exp.Cell) (exp.CellResult, bool) {
		p, err := tw.Predict(c)
		if err != nil || p.ShouldSimulate(target, eps) {
			return exp.CellResult{}, false
		}
		run, err := tw.PredictRun(c)
		if err != nil {
			return exp.CellResult{}, false
		}
		mu.Lock()
		keys = append(keys, c.Key())
		labels = append(labels, fmt.Sprintf("%s@%s=%g(±%.1f%%)",
			c.W.Name, spec.Param, axis.Value(&c.Cfg), p.RelCI*100))
		mu.Unlock()
		return exp.CellResult{Schema: exp.SchemaVersion, Key: c.Key(), Source: exp.SourcePredictedCell, Run: run}, true
	}

	res, err := s.RunSweep(spec)
	if err != nil {
		return exp.SweepResult{}, err
	}

	sort.Strings(keys)
	sort.Strings(labels)
	simulated := int(sims.Load())
	res.Twin = &exp.TwinSummary{Simulated: simulated, Predicted: len(keys), PredictedCells: keys}
	total := simulated + len(keys)
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(len(keys)) / float64(total)
	}
	fmt.Fprintf(os.Stderr, "twin-prune: simulated %d of %d cells (calibration anchors included), predicted %d from the model — %.0f%% fewer simulations\n",
		simulated, total, len(keys), pct)
	if len(labels) > 0 {
		fmt.Fprintf(os.Stderr, "twin-prune: predicted cells: %s\n", strings.Join(labels, " "))
	}
	return res, nil
}

// twinFootnote renders the text-mode audit line for a pruned sweep result.
func twinFootnote(t *exp.TwinSummary) string {
	return fmt.Sprintf("%d cells simulated, %d predicted by the analytical twin (keys in the JSON document's twin.predicted_cells)\n",
		t.Simulated, t.Predicted)
}
