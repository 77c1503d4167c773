package exp

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"svmsim"
)

// TestNodeCrashTableCompletesOnSurvivors is the experiment-level acceptance
// check: the crash sweep renders without row-level errors, and at least one
// crash configuration completes on the survivors (a finite degraded-mode
// speedup in a crash column — cells whose data died with the node are NaN by
// design, but the table must not be all NaN).
func TestNodeCrashTableCompletesOnSurvivors(t *testing.T) {
	tb, err := smallSuite(0).NodeCrash()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d:\n%s", len(tb.Rows), tb.String())
	}
	crashCols := 0
	for _, c := range tb.Cols {
		if strings.HasPrefix(c, "T") {
			crashCols++
		}
	}
	if crashCols != len(HeartbeatPoints)*len(CrashFractions) {
		t.Fatalf("crash columns missing: %v", tb.Cols)
	}
	survived := 0
	for _, r := range tb.Rows {
		if r.Err != "" {
			t.Fatalf("row %s degraded to an error (crash failures must be NaN cells): %s", r.Name, r.Err)
		}
		// Plain and detector-only columns must always be finite: nobody dies.
		for j := 0; j < 1+len(HeartbeatPoints); j++ {
			if math.IsNaN(r.Values[j]) {
				t.Fatalf("%s: fault-free column %s is NaN:\n%s", r.Name, tb.Cols[j], tb.String())
			}
		}
		for j := 1 + len(HeartbeatPoints); j < 1+len(HeartbeatPoints)+crashCols; j++ {
			if !math.IsNaN(r.Values[j]) {
				survived++
			}
		}
	}
	if survived == 0 {
		t.Fatalf("no crash configuration completed on survivors:\n%s", tb.String())
	}
}

// TestNodeCrashSerialMatchesParallel: a crash sweep is deterministic across
// scheduling — a serial suite and a parallel suite render byte-identical
// tables, NaN cells and recovery counters included.
func TestNodeCrashSerialMatchesParallel(t *testing.T) {
	render := func(parallelism int) string {
		tb, err := smallSuite(parallelism).NodeCrash()
		if err != nil {
			t.Fatal(err)
		}
		return tb.String()
	}
	serial, parallel := render(1), render(4)
	if serial != parallel {
		t.Fatalf("serial and parallel crash tables diverge:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestCleanConfigKeyUnchangedByCrashSupport: configurations without a crash
// plan or detector keep the exact memo key they had before crash support
// existed, so persistent caches built from clean sweeps stay valid; crashed
// and detector-on variants fork their own keys.
func TestCleanConfigKeyUnchangedByCrashSupport(t *testing.T) {
	s := smallSuite(1)
	clean := cfgKey(s.Base())
	if strings.Contains(clean, "crash") || strings.Contains(clean, "hb") {
		t.Fatalf("clean key mentions crash machinery: %s", clean)
	}
	crashed := s.Base()
	crashed.Net.Crash = &svmsim.CrashPlan{AtCycles: map[int]svmsim.Time{1: 1000}}
	detector := s.Base()
	detector.Proto.HeartbeatIntervalCycles = 50_000
	ck, dk := cfgKey(crashed), cfgKey(detector)
	if ck == clean || dk == clean || ck == dk {
		t.Fatalf("crash/detector variants collide: clean=%s crash=%s detector=%s", clean, ck, dk)
	}
}

// TestDeterministicErrorNotRetried: modeled failures (here a watchdog
// StallError) are reproducible, so a failing cell simulates once and its
// error is the cell's result.
func TestDeterministicErrorNotRetried(t *testing.T) {
	s := smallSuite(1)
	var log bytes.Buffer
	s.Observe = Progress(&log)
	cfg := s.Base()
	cfg.MaxCycles = 10 // everything trips the watchdog immediately
	_, err := s.RunCell(Cell{Cfg: cfg, W: tinyWorkload("stalled")})
	if err == nil {
		t.Fatal("watchdog did not fire")
	}
	if !errors.As(err, new(*svmsim.StallError)) {
		t.Fatalf("not a structured stall: %v", err)
	}
	if n := progressLines(&log, SourceSim); n != 1 {
		t.Fatalf("stalled cell simulated %d times, want 1:\n%s", n, log.String())
	}
}
