package twin

import (
	"fmt"
	"math"
	"sort"

	"svmsim/internal/exp"
)

// Report is the twin's validation scorecard: every paper table rendered
// twice — once by the simulator, once through a suite whose Answer hook is
// this twin — and compared value by value. Fault-injection tables
// (droprate, nodecrash) are excluded: their configurations are outside the
// modeled space by design. Cells the model cannot answer (interrupt-policy
// variants, request-handling extensions, ablations, foreign topologies)
// fall through to the simulator on both sides and score as exact; they
// prove the prune seam degrades correctly, not the model.
type Report struct {
	// Tables counts the experiments replayed.
	Tables int `json:"tables"`
	// Compared counts the finite values compared across all tables; Exact
	// of them agreed to within 1e-12 relative (anchor hits and pass-through
	// cells), Interpolated carried a genuine model estimate.
	Compared     int `json:"compared"`
	Exact        int `json:"exact"`
	Interpolated int `json:"interpolated"`
	// MedianRelErr/MaxRelErr summarize |twin − sim| / |sim| over every
	// compared value; MedianInterpErr over the interpolated ones only (the
	// honest score — the exact bucket would dilute it toward zero).
	MedianRelErr    float64 `json:"median_rel_err"`
	MedianInterpErr float64 `json:"median_interp_err"`
	MaxRelErr       float64 `json:"max_rel_err"`
	// PerTable breaks the comparison down by experiment.
	PerTable []TableAccuracy `json:"per_table"`
}

// TableAccuracy is one experiment's accuracy summary.
type TableAccuracy struct {
	ID           string  `json:"id"`
	Compared     int     `json:"compared"`
	Exact        int     `json:"exact"`
	MedianRelErr float64 `json:"median_rel_err"`
	MaxRelErr    float64 `json:"max_rel_err"`
}

// reportExcluded are the experiments outside the twin's charter: both
// inject faults/crashes, which the model deliberately refuses (an
// UncalibratedError, not a guess).
var reportExcluded = map[string]bool{"droprate": true, "nodecrash": true}

// BuildReport replays every non-fault experiment through the twin and
// scores it against the simulator. sim supplies ground truth (and is left
// fully warmed); the twin must already be calibrated for every
// workload/protocol the tables exercise — uncovered cells fall through to
// the simulator rather than failing, so a thin calibration yields an
// honest, mostly-exact report rather than an error.
func BuildReport(sim *exp.Suite, t *Twin) (*Report, error) {
	// The twin-side suite mirrors the simulation suite's shape but answers
	// modeled cells from the twin and bridges everything else to the
	// already-warm simulation suite — so the report never re-simulates and
	// never lets a prediction masquerade as a measurement in sim's caches.
	tw := exp.NewSuite(sim.Sizes)
	tw.Procs, tw.PPN, tw.Parallelism = sim.Procs, sim.PPN, sim.Parallelism
	tw.Answer = func(c exp.Cell) (exp.CellResult, bool) {
		if run, err := t.PredictRun(c); err == nil {
			return exp.CellResult{Schema: exp.SchemaVersion, Key: c.Key(), Source: exp.SourcePredictedCell, Run: run}, true
		}
		run, err := sim.RunCell(c)
		return exp.NewCellResult(c.Key(), run, err), true
	}

	rep := &Report{}
	var all, interp []float64
	simExps, twinExps := sim.Experiments(), tw.Experiments()
	for i, se := range simExps {
		if reportExcluded[se.ID] {
			continue
		}
		st, err := se.Run()
		if err != nil {
			return nil, fmt.Errorf("twin: report: simulating %s: %w", se.ID, err)
		}
		tt, err := twinExps[i].Run()
		if err != nil {
			return nil, fmt.Errorf("twin: report: replaying %s through the twin: %w", se.ID, err)
		}
		acc, errs, interpErrs, err := compareTables(st, tt)
		if err != nil {
			return nil, fmt.Errorf("twin: report: %s: %w", se.ID, err)
		}
		rep.Tables++
		rep.Compared += acc.Compared
		rep.Exact += acc.Exact
		rep.Interpolated += len(interpErrs)
		rep.PerTable = append(rep.PerTable, acc)
		all = append(all, errs...)
		interp = append(interp, interpErrs...)
		if acc.MaxRelErr > rep.MaxRelErr {
			rep.MaxRelErr = acc.MaxRelErr
		}
	}
	rep.MedianRelErr = median(all)
	rep.MedianInterpErr = median(interp)
	return rep, nil
}

// compareTables scores one twin-rendered table against its simulated
// counterpart. Structure mismatches are errors, not scores — the twin suite
// must render the same experiments the simulator does.
func compareTables(sim, tw *exp.Table) (TableAccuracy, []float64, []float64, error) {
	acc := TableAccuracy{ID: sim.ID}
	if len(sim.Rows) != len(tw.Rows) {
		return acc, nil, nil, fmt.Errorf("row count mismatch: %d vs %d", len(sim.Rows), len(tw.Rows))
	}
	var errs, interpErrs []float64
	for i, sr := range sim.Rows {
		tr := tw.Rows[i]
		if sr.Name != tr.Name || sr.Err != tr.Err || len(sr.Values) != len(tr.Values) {
			return acc, nil, nil, fmt.Errorf("row %q shape mismatch", sr.Name)
		}
		for j, sv := range sr.Values {
			tv := tr.Values[j]
			if math.IsNaN(sv) || math.IsNaN(tv) || math.IsInf(sv, 0) || math.IsInf(tv, 0) {
				continue
			}
			denom := math.Abs(sv)
			if denom < 1e-9 {
				denom = 1e-9
			}
			rel := math.Abs(tv-sv) / denom
			acc.Compared++
			errs = append(errs, rel)
			if rel < 1e-12 {
				acc.Exact++
			} else {
				interpErrs = append(interpErrs, rel)
			}
			if rel > acc.MaxRelErr {
				acc.MaxRelErr = rel
			}
		}
	}
	acc.MedianRelErr = median(errs)
	return acc, errs, interpErrs, nil
}

// median returns the middle value (mean of the middle two for even counts);
// zero for an empty set.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
