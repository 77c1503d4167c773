package exp

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"svmsim"
)

// TestParallelMatchesSerialDeterminism is the determinism regression test:
// the same (configuration, workload) cells executed serially and under the
// parallel worker pool must produce identical cycle counts and per-processor
// statistics byte-for-byte, and identical rendered tables.
func TestParallelMatchesSerialDeterminism(t *testing.T) {
	wls := pick("FFT", "LU")
	serial := NewSuite(Small)
	serial.Parallelism = 1
	parallel := NewSuite(Small)
	parallel.Parallelism = 4

	ts, err := serial.SweepParam("clustering", wls, svmsim.HLRC)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := parallel.SweepParam("clustering", wls, svmsim.HLRC)
	if err != nil {
		t.Fatal(err)
	}
	if ts.String() != tp.String() {
		t.Fatalf("parallel table differs from serial:\nserial:\n%s\nparallel:\n%s", ts.String(), tp.String())
	}

	// Byte-for-byte per-processor stats on a shared cell.
	for _, w := range wls {
		rs, err := serial.RunCell(Cell{Cfg: serial.Base(), W: w})
		if err != nil {
			t.Fatal(err)
		}
		rp, err := parallel.RunCell(Cell{Cfg: parallel.Base(), W: w})
		if err != nil {
			t.Fatal(err)
		}
		if rs.Cycles != rp.Cycles {
			t.Errorf("%s: cycles differ: serial %d vs parallel %d", w.Name, rs.Cycles, rp.Cycles)
		}
		fs := fmt.Sprintf("%+v", rs.Procs)
		fp := fmt.Sprintf("%+v", rp.Procs)
		if fs != fp {
			t.Errorf("%s: per-proc stats differ:\nserial:   %s\nparallel: %s", w.Name, fs, fp)
		}
	}
}

// TestRunnerDedupesCells checks singleflight semantics: a batch with
// duplicated cells (and cells another experiment already ran) simulates each
// unique key exactly once, and returns results aligned with the batch, the
// duplicates sharing one *RunStats.
func TestRunnerDedupesCells(t *testing.T) {
	s := NewSuite(Small)
	s.Parallelism = 4
	var log bytes.Buffer
	s.Observe = Progress(&log)

	w := pick("LU")[0]
	base := Cell{Cfg: s.Base(), W: w}
	uni := Cell{Cfg: svmsim.Uniprocessor(s.Base()), W: w}
	cells := []Cell{base, uni, base, base, uni}
	runs, errs := s.RunCells(cells)
	if err := FirstErr(errs); err != nil {
		t.Fatal(err)
	}
	if got := progressLines(&log, SourceSim); got != 2 {
		t.Fatalf("ran %d cells, want 2 unique:\n%s", got, log.String())
	}
	if len(runs) != len(cells) || len(errs) != len(cells) {
		t.Fatalf("%d runs and %d errors for a %d-cell batch", len(runs), len(errs), len(cells))
	}
	if runs[0] == nil || runs[0] != runs[2] || runs[0] != runs[3] || runs[1] != runs[4] {
		t.Fatalf("duplicate cells do not share one result: %p %p %p %p %p", runs[0], runs[1], runs[2], runs[3], runs[4])
	}
	if len(runs[0].Procs) != s.Procs || len(runs[1].Procs) != 1 {
		t.Fatalf("results are not aligned with their cells: %d and %d processors", len(runs[0].Procs), len(runs[1].Procs))
	}
	// A second batch containing the same cells is pure cache hits.
	again, errs := s.RunCells(cells)
	if err := FirstErr(errs); err != nil {
		t.Fatal(err)
	}
	if got := progressLines(&log, SourceSim); got != 2 {
		t.Fatalf("re-running cached cells simulated again (%d lines):\n%s", got, log.String())
	}
	for i := range cells {
		if again[i] != runs[i] {
			t.Fatalf("cell %d: the memo served a different result", i)
		}
	}
}

// TestSweepObservesEachCellOnce: a sweep requests each unique cell of its
// batch once, and builds its rows from the batch's results rather than
// asking the memo again. On a fresh suite every request is a simulation.
func TestSweepObservesEachCellOnce(t *testing.T) {
	s := smallSuite(4)
	var mu sync.Mutex
	var events []CellEvent
	s.Observe = func(ev CellEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	if _, err := s.SweepParam("interrupt", []svmsim.Workload{tinyWorkload("tiny")}, svmsim.HLRC); err != nil {
		t.Fatal(err)
	}
	// The uniprocessor baseline plus one cell per interrupt-cost point.
	want := 1 + len(InterruptPoints)
	keys := map[string]bool{}
	for _, ev := range events {
		if ev.Source != SourceSim {
			t.Errorf("cell %s served from %s, want sim", ev.Key, ev.Source)
		}
		keys[ev.Key] = true
	}
	if len(events) != want || len(keys) != want {
		t.Fatalf("%d events for %d unique cells, want one for each of %d", len(events), len(keys), want)
	}
}

// TestRunnerErrorIsEarliestCell checks that the reported error is the
// earliest failing cell in enumeration order, independent of completion
// order.
func TestRunnerErrorIsEarliestCell(t *testing.T) {
	s := NewSuite(Small)
	s.Parallelism = 4
	w := pick("LU")[0]

	bad := func(name string) Cell {
		cfg := s.Base()
		// Dedicated protocol processors require >= 2 procs per node; ppn=1
		// fails config validation before simulating.
		cfg.ProcsPerNode = 1
		cfg.Requests = svmsim.RequestDedicated
		cfg.IntrHalfCostCycles = svmsim.Time(len(name)) // distinct keys per bad cell
		return Cell{Cfg: cfg, W: w}
	}
	cells := []Cell{
		{Cfg: s.Base(), W: w},
		bad("first"),
		bad("second!"),
	}
	_, errs := s.RunCells(cells)
	err := FirstErr(errs)
	if err == nil {
		t.Fatal("want error from invalid cells")
	}
	if !strings.Contains(err.Error(), "intr5/") {
		t.Fatalf("error %q is not from the earliest failing cell", err)
	}
}

// TestZeroValueSuite checks the lazily initialized memo map: a Suite
// constructed directly (not via NewSuite) must still run and memoize.
func TestZeroValueSuite(t *testing.T) {
	s := &Suite{Procs: 4, PPN: 2, Sizes: Small}
	w := pick("LU")[0]
	r1, err := s.RunCell(Cell{Cfg: s.Base(), W: w})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunCell(Cell{Cfg: s.Base(), W: w})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second run not served from cache")
	}
}
