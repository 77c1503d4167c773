package twin

import (
	"testing"

	"svmsim"
	"svmsim/internal/exp"
)

// TestTwinValidationGate is the twin's accuracy contract, replayed against
// every non-fault paper table (21 of 23; the fault-injection tables are
// outside the modeled space by design):
//
//   - median relative error ≤ 10% over all compared values, and — the
//     honest bucket — over genuinely interpolated values alone;
//   - Table 3's communication-parameter sensitivities agree with the
//     simulator bit for bit (range endpoints are calibration anchors);
//   - the reproduction's sensitivity structure holds in the twin: interrupt
//     cost always hurts, I/O bandwidth dominates the communication
//     parameters (this reproduction's strongest axis; the paper's
//     interrupt-dominance shows up here as interrupt cost never being
//     negligible), host overhead is never the top parameter under HLRC;
//   - under AURC, NI occupancy is a first-order effect for the Figure 12
//     applications (≥ 25% slowdown across the studied range, per finding 3).
//
// Skipped with -short: it simulates the full 16-processor table set once.
func TestTwinValidationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-table twin validation is slow; run without -short")
	}
	s := exp.NewSuite(exp.Small)
	s.Parallelism = 4
	tw := New()

	for _, w := range svmsim.Workloads() {
		if _, err := tw.Calibrate(s, w, svmsim.HLRC); err != nil {
			t.Fatalf("calibrating %s/hlrc: %v", w.Name, err)
		}
	}
	fig12Apps := []string{"FFT", "LU", "Ocean", "Water-sp", "Barnes-reb"}
	for _, name := range fig12Apps {
		w, err := exp.WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Calibrate(s, w, svmsim.AURC, exp.AxisOccupancy); err != nil {
			t.Fatalf("calibrating %s/aurc: %v", name, err)
		}
	}

	rep, err := BuildReport(s, tw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables != 21 {
		t.Errorf("replayed %d tables, want 21", rep.Tables)
	}
	if rep.Compared == 0 || rep.Interpolated == 0 {
		t.Fatalf("degenerate report: compared=%d interpolated=%d", rep.Compared, rep.Interpolated)
	}
	if rep.MedianRelErr > 0.10 {
		t.Errorf("median relative error %.4f > 0.10", rep.MedianRelErr)
	}
	if rep.MedianInterpErr > 0.10 {
		t.Errorf("median interpolated relative error %.4f > 0.10", rep.MedianInterpErr)
	}
	if rep.MaxRelErr > 0.35 {
		t.Errorf("max relative error %.4f > 0.35 (additive composition drifted)", rep.MaxRelErr)
	}
	t.Logf("twin report: %d tables, %d values (%d exact, %d interpolated), median %.4f, interp median %.4f, max %.4f",
		rep.Tables, rep.Compared, rep.Exact, rep.Interpolated,
		rep.MedianRelErr, rep.MedianInterpErr, rep.MaxRelErr)

	// Table 3 sensitivities: the suite is warm, so this renders instantly.
	sim3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sim3.Rows {
		if row.Err != "" {
			t.Fatalf("Table 3 row %s degraded: %s", row.Name, row.Err)
		}
		m, ok := tw.Model(row.Name, svmsim.HLRC)
		if !ok {
			t.Fatalf("no HLRC model for %s", row.Name)
		}
		sens := m.Sensitivities()
		if len(sens) != 6 {
			t.Fatalf("%s: %d sensitivities, want 6", row.Name, len(sens))
		}
		commTop := ""
		var commMax float64
		for _, sn := range sens {
			// Table 3's columns run in axis order.
			axis, err := exp.AxisByName(sn.Param)
			if err != nil {
				t.Fatalf("%s: unknown sensitivity param %q", row.Name, sn.Param)
			}
			if sim := row.Values[axis]; sn.SlowdownPct != sim {
				t.Errorf("%s %s: twin slowdown %.6f != simulator Table 3 %.6f",
					row.Name, sn.Param, sn.SlowdownPct, sim)
			}
			if axis <= exp.AxisInterrupt && (commTop == "" || sn.SlowdownPct > commMax) {
				commTop, commMax = sn.Param, sn.SlowdownPct
			}
			if sn.Param == "interrupt" && sn.SlowdownPct <= 0 {
				t.Errorf("%s: interrupt sensitivity %.2f%% not positive", row.Name, sn.SlowdownPct)
			}
		}
		if commTop != "iobw" {
			t.Errorf("%s: top communication parameter %q, want iobw (this reproduction's dominant axis)",
				row.Name, commTop)
		}
		if commTop == "overhead" {
			t.Errorf("%s: host overhead ranked top under HLRC", row.Name)
		}
	}

	// Finding 3: AURC makes NI occupancy a first-order parameter.
	for _, name := range fig12Apps {
		m, ok := tw.Model(name, svmsim.AURC)
		if !ok {
			t.Fatalf("no AURC model for %s", name)
		}
		found := false
		for _, sn := range m.Sensitivities() {
			if sn.Param != "occupancy" {
				continue
			}
			found = true
			if sn.SlowdownPct < 25 {
				t.Errorf("%s/aurc: occupancy slowdown %.1f%% < 25%% across studied range", name, sn.SlowdownPct)
			}
		}
		if !found {
			t.Fatalf("%s/aurc: occupancy not calibrated", name)
		}
	}
}
