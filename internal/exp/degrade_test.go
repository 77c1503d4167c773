package exp

import (
	"bytes"
	"strings"
	"testing"

	"svmsim"
)

// tinyWorkload is a minimal healthy cell: cheap, deterministic, real barrier.
func tinyWorkload(name string) svmsim.Workload {
	mk := func() svmsim.App {
		return svmsim.App{
			Name:  name,
			Setup: func(w *svmsim.World) any { return nil },
			Body:  func(c *svmsim.Proc, state any) { c.Compute(1000); c.Barrier() },
		}
	}
	return svmsim.Workload{Name: name, Small: mk, Default: mk}
}

// panicWorkload fails its cell by panicking during setup.
func panicWorkload(name string) svmsim.Workload {
	mk := func() svmsim.App {
		return svmsim.App{
			Name:  name,
			Setup: func(w *svmsim.World) any { panic("boom: " + name) },
			Body:  func(c *svmsim.Proc, state any) {},
		}
	}
	return svmsim.Workload{Name: name, Small: mk, Default: mk}
}

func smallSuite(parallelism int) *Suite {
	s := NewSuite(Small)
	s.Procs = 4
	s.PPN = 2
	s.Parallelism = parallelism
	return s
}

// TestPanicCellDegradesToErrorRow: a panicking cell is caught, reported as
// that cell's error, cached (no re-simulation), and does not prevent the
// other cells of the batch from completing.
func TestPanicCellDegradesToErrorRow(t *testing.T) {
	s := smallSuite(4)
	var log bytes.Buffer
	s.Verbose = &log
	good := tinyWorkload("tiny")
	bad := panicWorkload("bomb")
	cells := []Cell{{Cfg: s.Base(), W: good}, {Cfg: s.Base(), W: bad}}
	runs, errs := s.RunCells(cells)
	if err := FirstErr(errs); err == nil || !strings.Contains(err.Error(), "panic: boom: bomb") {
		t.Fatalf("panic not converted to cell error: %v", err)
	}
	// The healthy cell completed despite its neighbor's panic.
	if errs[0] != nil || runs[0] == nil {
		t.Fatalf("healthy cell poisoned by panicking neighbor: %v", errs[0])
	}
	// The error is cached: asking again returns it without re-simulating.
	before := strings.Count(log.String(), "run ")
	if _, err := s.run(s.Base(), bad); err == nil {
		t.Fatal("cached error lost")
	}
	if after := strings.Count(log.String(), "run "); after != before {
		t.Fatalf("error cell re-simulated (%d -> %d run lines)", before, after)
	}
}

// TestSerialMatchesParallelWithErrorCells: the serial runner path has the
// same degraded-sweep semantics as the parallel one — every healthy cell
// completes and the reported error is the earliest failing cell's in
// enumeration order.
func TestSerialMatchesParallelWithErrorCells(t *testing.T) {
	good1, good2 := tinyWorkload("tiny-a"), tinyWorkload("tiny-b")
	cellsFor := func(s *Suite) []Cell {
		return []Cell{
			{Cfg: s.Base(), W: good1},
			{Cfg: s.Base(), W: panicWorkload("bomb-1")},
			{Cfg: s.Base(), W: good2},
			{Cfg: s.Base(), W: panicWorkload("bomb-2")},
		}
	}
	serial, parallel := smallSuite(1), smallSuite(4)
	_, errsS := serial.RunCells(cellsFor(serial))
	_, errsP := parallel.RunCells(cellsFor(parallel))
	errS, errP := FirstErr(errsS), FirstErr(errsP)
	if errS == nil || errP == nil {
		t.Fatalf("errors lost: serial=%v parallel=%v", errS, errP)
	}
	if errS.Error() != errP.Error() {
		t.Fatalf("serial and parallel report different errors:\nserial:   %v\nparallel: %v", errS, errP)
	}
	if !strings.Contains(errS.Error(), "bomb-1") {
		t.Fatalf("error %v is not the earliest failing cell", errS)
	}
	for _, w := range []svmsim.Workload{good1, good2} {
		rs, err := serial.run(serial.Base(), w)
		if err != nil {
			t.Fatalf("serial lost healthy cell %s: %v", w.Name, err)
		}
		rp, err := parallel.run(parallel.Base(), w)
		if err != nil {
			t.Fatalf("parallel lost healthy cell %s: %v", w.Name, err)
		}
		if rs.Cycles != rp.Cycles {
			t.Fatalf("%s: serial %d vs parallel %d cycles", w.Name, rs.Cycles, rp.Cycles)
		}
	}
}

// TestTableRendersErrorRows: an error row renders its message in place of
// values, leaving the other rows intact.
func TestTableRendersErrorRows(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Cols: []string{"A", "B"},
		Rows: []Row{
			{Name: "good", Values: []float64{1, 2}},
			{Name: "bad", Err: "machine: exploded"},
		}}
	out := tb.String()
	if !strings.Contains(out, "ERROR: machine: exploded") {
		t.Fatalf("error row not rendered:\n%s", out)
	}
	if !strings.Contains(out, "good") || !strings.Contains(out, "2.00") {
		t.Fatalf("healthy row damaged:\n%s", out)
	}
}

// TestDropRateDeterministic: the fault experiment's fixed seed makes two
// fresh suites render byte-identical tables — retransmit schedules included.
func TestDropRateDeterministic(t *testing.T) {
	render := func() string {
		tb, err := smallSuite(0).DropRate()
		if err != nil {
			t.Fatal(err)
		}
		return tb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("drop-rate tables diverge:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(a, "ERROR") {
		t.Fatalf("drop-rate sweep has error rows:\n%s", a)
	}
	// Every subset application must be present with a full set of columns.
	for _, name := range []string{"FFT", "Radix", "Water-nsq", "Barnes-reb"} {
		if !strings.Contains(a, name) {
			t.Fatalf("missing row %s:\n%s", name, a)
		}
	}
}
