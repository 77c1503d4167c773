package exp

import (
	"slices"
	"testing"

	"svmsim"
)

// TestSweepParamIOBwColumnsMatchFigure8: a named iobw sweep labels its
// columns as Figure 8 does.
func TestSweepParamIOBwColumnsMatchFigure8(t *testing.T) {
	tbl, err := NewSuite(Small).SweepParam("iobw", []svmsim.Workload{tinyWorkload("tiny")}, svmsim.HLRC)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0.2", "0.5", "1.0", "2.0"}
	if !slices.Equal(tbl.Cols, want) {
		t.Errorf("sweep -param iobw columns %q, want %q", tbl.Cols, want)
	}
	// Figure 8's shape without simulating: every cell answers from the
	// Answer hook.
	s := NewSuite(Small)
	s.Answer = func(c Cell) (CellResult, bool) {
		return CellResult{Schema: SchemaVersion, Key: c.Key(), Source: SourcePredictedCell, Run: &svmsim.RunStats{Cycles: 1000}}, true
	}
	fig8, err := s.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tbl.Cols, fig8.Cols) {
		t.Errorf("sweep -param iobw columns %q differ from Figure 8's %q", tbl.Cols, fig8.Cols)
	}
}

// TestSweepNamesAreTheSixAxes: ResolveSweep and SweepParam accept exactly
// the six sweep names and reject anything else with one error text.
func TestSweepNamesAreTheSixAxes(t *testing.T) {
	names := []string{"overhead", "occupancy", "iobw", "interrupt", "pagesize", "clustering"}
	if got := AxisNames(); !slices.Equal(got, names) {
		t.Fatalf("AxisNames() = %q, want %q", got, names)
	}
	s := NewSuite(Small)
	wls := []svmsim.Workload{tinyWorkload("tiny")}
	for _, name := range names {
		if _, _, err := s.ResolveSweep(SweepSpec{Param: name}); err != nil {
			t.Errorf("ResolveSweep(%q): %v", name, err)
		}
		if _, err := s.SweepParam(name, wls, svmsim.HLRC); err != nil {
			t.Errorf("SweepParam(%q): %v", name, err)
		}
	}
	for _, name := range []string{"x", "", "IOBW", "ppn"} {
		want := `exp: unknown parameter "` + name + `"`
		if _, _, err := s.ResolveSweep(SweepSpec{Param: name}); err == nil || err.Error() != want {
			t.Errorf("ResolveSweep(%q) error %v, want %s", name, err, want)
		}
		if _, err := s.SweepParam(name, wls, svmsim.HLRC); err == nil || err.Error() != want {
			t.Errorf("SweepParam(%q) error %v, want %s", name, err, want)
		}
	}
}

// TestBestSetsCommAxesToBestEnd: svmsim.Best puts each communication
// parameter at the best end of its studied range. The machine package
// cannot import the axis table, so this is where the two are tied.
func TestBestSetsCommAxesToBestEnd(t *testing.T) {
	best := svmsim.Best()
	for a := AxisHostOverhead; a <= AxisInterrupt; a++ {
		if atBest, _ := a.extremes(best); atBest != best {
			t.Errorf("svmsim.Best() has %s = %g, not the best end of %v", a, a.Value(&best), a.Points())
		}
	}
}
