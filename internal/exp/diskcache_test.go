package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"svmsim"
)

// TestDiskCacheRoundTrip: a fresh suite pointed at a warm cache directory
// reproduces the first suite's results without simulating anything.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := tinyWorkload("tiny")

	warm := smallSuite(1)
	warm.CacheDir = dir
	first, err := warm.run(warm.Base(), w)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("want 1 spilled cell, got %v", files)
	}

	cold := smallSuite(1)
	cold.CacheDir = dir
	var log bytes.Buffer
	cold.Verbose = &log
	second, err := cold.run(cold.Base(), w)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cycles != first.Cycles {
		t.Fatalf("disk result diverges: %d vs %d cycles", second.Cycles, first.Cycles)
	}
	if strings.Count(log.String(), "run ") != 0 {
		t.Fatalf("warm cache still simulated:\n%s", log.String())
	}
	if strings.Count(log.String(), "disk ") != 1 {
		t.Fatalf("disk hit not taken:\n%s", log.String())
	}
}

// TestDiskCachePersistsErrors: a failing cell's error is spilled too, so a
// later sweep renders the same error row without re-paying the simulation.
func TestDiskCachePersistsErrors(t *testing.T) {
	dir := t.TempDir()
	w := panicWorkload("bomb")

	warm := smallSuite(1)
	warm.CacheDir = dir
	_, err1 := warm.run(warm.Base(), w)
	if err1 == nil {
		t.Fatal("panic cell succeeded")
	}

	cold := smallSuite(1)
	cold.CacheDir = dir
	var log bytes.Buffer
	cold.Verbose = &log
	_, err2 := cold.run(cold.Base(), w)
	if err2 == nil {
		t.Fatal("cached error lost")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("cached error text diverges:\n%v\nvs\n%v", err1, err2)
	}
	if strings.Count(log.String(), "run ") != 0 {
		t.Fatalf("error cell re-simulated:\n%s", log.String())
	}
}

// TestDiskCacheToleratesCorruption: a torn or garbage entry is a plain miss —
// the cell re-simulates and the entry is overwritten with a valid one.
func TestDiskCacheToleratesCorruption(t *testing.T) {
	dir := t.TempDir()
	w := tinyWorkload("tiny")

	warm := smallSuite(1)
	warm.CacheDir = dir
	first, err := warm.run(warm.Base(), w)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("want 1 spilled cell, got %v", files)
	}
	if err := os.WriteFile(files[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	cold := smallSuite(1)
	cold.CacheDir = dir
	second, err := cold.run(cold.Base(), w)
	if err != nil {
		t.Fatalf("corrupt entry broke the cell: %v", err)
	}
	if second.Cycles != first.Cycles {
		t.Fatalf("re-simulated result diverges: %d vs %d", second.Cycles, first.Cycles)
	}
	data, err := os.ReadFile(files[0])
	if err != nil || !strings.Contains(string(data), "\"key\"") {
		t.Fatalf("corrupt entry not repaired: %v %q", err, data)
	}
}

// validCacheDir asserts every entry in a shared cache directory decodes as a
// complete, schema-current CellResult — no torn or corrupt files survive a
// race.
func validCacheDir(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("unreadable cache entry %s: %v", f, err)
		}
		res, err := DecodeCellResult(data)
		if err != nil {
			t.Fatalf("corrupt cache entry %s: %v\n%q", f, err, data)
		}
		if res.Run == nil && res.Err == "" {
			t.Fatalf("empty cache entry %s: %q", f, data)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("leaked temp files: %v", tmps)
	}
	return files
}

// TestConcurrentRunnersNeverDoubleSimulate: two Runners sharing one Suite
// and one cache directory race over an overlapping cell set; the Observe
// hook proves every unique cell simulated exactly once (singleflight), and
// every disk entry stays complete and valid.
func TestConcurrentRunnersNeverDoubleSimulate(t *testing.T) {
	dir := t.TempDir()
	s := smallSuite(4)
	s.CacheDir = dir
	var sims atomic.Int64
	s.Observe = func(ev CellEvent) {
		if ev.Source == SourceSim {
			sims.Add(1)
		}
	}
	var cells []Cell
	for i := 0; i < 4; i++ {
		cells = append(cells, Cell{Cfg: s.Base(), W: tinyWorkload(fmt.Sprintf("tiny-%d", i))})
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cellErrs := s.RunCells(cells)
			errs[i] = FirstErr(cellErrs)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("runner %d: %v", i, err)
		}
	}
	if got := sims.Load(); got != int64(len(cells)) {
		t.Fatalf("double simulation: %d sims for %d unique cells", got, len(cells))
	}
	if files := validCacheDir(t, dir); len(files) != len(cells) {
		t.Fatalf("want %d cache entries, got %d", len(cells), len(files))
	}
}

// TestConcurrentSuitesShareCacheDir: two independent Suites (two "processes")
// race on one cache directory. Both complete with identical results and the
// directory holds only complete entries — racing writers settle via the
// atomic rename path.
func TestConcurrentSuitesShareCacheDir(t *testing.T) {
	dir := t.TempDir()
	w := tinyWorkload("tiny")
	mk := func() *Suite {
		s := smallSuite(2)
		s.CacheDir = dir
		return s
	}
	a, b := mk(), mk()
	var wg sync.WaitGroup
	runs := make([]*svmsim.RunStats, 2)
	errs := make([]error, 2)
	for i, s := range []*Suite{a, b} {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = s.run(s.Base(), w)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("suite %d: %v", i, err)
		}
	}
	if runs[0].Cycles != runs[1].Cycles {
		t.Fatalf("racing suites diverge: %d vs %d cycles", runs[0].Cycles, runs[1].Cycles)
	}
	validCacheDir(t, dir)

	// A third suite over the warm directory is pure disk hits.
	c := mk()
	var hit atomic.Int64
	c.Observe = func(ev CellEvent) {
		if ev.Source == SourceDisk {
			hit.Add(1)
		}
		if ev.Source == SourceSim {
			t.Error("warm directory still simulated")
		}
	}
	if _, err := c.run(c.Base(), w); err != nil {
		t.Fatal(err)
	}
	if hit.Load() != 1 {
		t.Fatalf("disk hit not observed (%d)", hit.Load())
	}
}

// TestObserveSources: the observability seam reports the right source for
// every serving path — fresh simulation, memo hit, in-flight join and disk
// hit — with wall seconds only on simulations.
func TestObserveSources(t *testing.T) {
	dir := t.TempDir()
	s := smallSuite(1)
	s.CacheDir = dir
	w := tinyWorkload("tiny")
	var mu sync.Mutex
	var got []CellEvent
	s.Observe = func(ev CellEvent) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	}
	if _, err := s.run(s.Base(), w); err != nil {
		t.Fatal(err)
	}
	if _, err := s.run(s.Base(), w); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Source != SourceSim || got[1].Source != SourceMemo {
		t.Fatalf("events %+v", got)
	}
	if got[0].Seconds <= 0 {
		t.Fatalf("simulation event carries no wall seconds: %+v", got[0])
	}
	if got[1].Seconds != 0 {
		t.Fatalf("memo hit charged wall seconds: %+v", got[1])
	}
	key := Cell{Cfg: s.Base(), W: w}.Key()
	if got[0].Key != key {
		t.Fatalf("event key %q != cell key %q", got[0].Key, key)
	}

	// A fresh suite on the warm directory reports a disk hit.
	cold := smallSuite(1)
	cold.CacheDir = dir
	var disk []CellSource
	cold.Observe = func(ev CellEvent) { disk = append(disk, ev.Source) }
	if _, err := cold.run(cold.Base(), w); err != nil {
		t.Fatal(err)
	}
	if len(disk) != 1 || disk[0] != SourceDisk {
		t.Fatalf("disk events %v", disk)
	}
}
