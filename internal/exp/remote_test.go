package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"svmsim"
)

// specCatalog enumerates wire specs covering every studied parameter range
// plus the protocol/policy/topology variants — the cells a fleet actually
// dispatches.
func specCatalog() []CellSpec {
	var specs []CellSpec
	add := func(s CellSpec) {
		s.Workload = "FFT"
		specs = append(specs, s)
	}
	for _, p := range HostOverheadPoints {
		v := p
		add(CellSpec{HostOverheadCycles: &v})
	}
	for _, p := range OccupancyPoints {
		v := p
		add(CellSpec{NIOccupancyCycles: &v})
	}
	for _, p := range IOBandwidthPoints {
		v := p
		add(CellSpec{IOBytesPerCycle: &v})
	}
	for _, p := range InterruptPoints {
		v := p
		add(CellSpec{IntrHalfCostCycles: &v})
	}
	for _, p := range PageSizePoints {
		add(CellSpec{PageBytes: p})
	}
	for _, p := range ClusteringPoints {
		add(CellSpec{PPN: p})
	}
	add(CellSpec{Mode: "aurc"})
	add(CellSpec{IntrPolicy: "round-robin"})
	add(CellSpec{Requests: "polling"})
	add(CellSpec{Requests: "dedicated"})
	add(CellSpec{NIServePages: true})
	add(CellSpec{NIsPerNode: 2})
	add(CellSpec{AllLocal: true})
	add(CellSpec{Uniprocessor: true})
	add(CellSpec{Procs: 8, PPN: 2})
	return specs
}

// TestSpecFromCellRoundTrip is the dispatch correctness keystone: a cell
// resolved on one suite, inverted by SpecFromCell, and re-resolved on a
// suite with a *different* baseline must come back with the identical
// content key. Affinity, dedup and the byte-identical-sweep guarantee all
// key on this.
func TestSpecFromCellRoundTrip(t *testing.T) {
	coord := NewSuite(Small)
	worker := NewSuite(Small)
	worker.Procs = 8 // deliberately skewed baseline: the spec must override it
	worker.PPN = 2

	for _, spec := range specCatalog() {
		cell, err := coord.ResolveCell(spec)
		if err != nil {
			t.Fatalf("resolving %+v: %v", spec, err)
		}
		wire, ok := SpecFromCell(cell)
		if !ok {
			t.Fatalf("SpecFromCell rejected wire-expressible cell %s", cell.Key())
		}
		back, err := worker.ResolveCell(wire)
		if err != nil {
			t.Fatalf("worker rejected round-tripped spec for %s: %v", cell.Key(), err)
		}
		if back.Key() != cell.Key() {
			t.Errorf("round trip changed the content key:\ncoordinator %s\nworker      %s", cell.Key(), back.Key())
		}
	}
}

// TestSpecFromCellRejectsNonWire checks the inverse gate: cells whose
// configuration exceeds the wire schema must stay local rather than be
// mis-dispatched as their pristine cousins (which would collide content
// keys across different simulations).
func TestSpecFromCellRejectsNonWire(t *testing.T) {
	s := NewSuite(Small)
	w := pick("FFT")[0]
	mutations := map[string]func(*svmsim.Config){
		"fault plan":    func(c *svmsim.Config) { c.Net.Fault = &svmsim.FaultPlan{Seed: 1} },
		"reliable":      func(c *svmsim.Config) { c.Net.Reliable.Enabled = true },
		"watchdog":      func(c *svmsim.Config) { c.MaxCycles = 1000 },
		"stall check":   func(c *svmsim.Config) { c.StallCheckCycles = 1000 },
		"crash plan":    func(c *svmsim.Config) { c.Net.Crash = &svmsim.CrashPlan{AtCycles: map[int]svmsim.Time{1: 100}} },
		"heartbeat":     func(c *svmsim.Config) { c.Proto.HeartbeatIntervalCycles = 50_000 },
		"suspect bound": func(c *svmsim.Config) { c.Proto.SuspectTimeoutCycles = 200_000 },
	}
	for name, mutate := range mutations {
		cfg := s.Base()
		mutate(&cfg)
		if _, ok := SpecFromCell(Cell{Cfg: cfg, W: w}); ok {
			t.Errorf("%s cell was accepted as wire-expressible", name)
		}
	}
	if _, ok := SpecFromCell(Cell{Cfg: s.Base(), W: w}); !ok {
		t.Error("pristine baseline cell rejected")
	}
}

// TestRemoteHookServesCell wires a fake fleet into the Remote seam: the
// "worker" is just a second suite. The serving suite must take the remote
// result without simulating locally, report SourceRemote to Observe, and
// memoize it like any local result.
func TestRemoteHookServesCell(t *testing.T) {
	workerSuite := NewSuite(Small)
	w := pick("LU")[0]

	s := NewSuite(Small)
	var log bytes.Buffer
	s.Verbose = &log
	calls := 0
	s.Remote = func(c Cell) (CellResult, bool) {
		calls++
		run, err := workerSuite.RunCell(c)
		return NewCellResult(c.Key(), run, err), true
	}
	var sources []CellSource
	s.Observe = func(ev CellEvent) { sources = append(sources, ev.Source) }

	cell := Cell{Cfg: s.Base(), W: w}
	got, err := s.RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workerSuite.RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("remote result differs: %d cycles vs %d locally", got.Cycles, want.Cycles)
	}
	if calls != 1 {
		t.Fatalf("remote hook called %d times, want 1", calls)
	}
	if strings.Contains(log.String(), "run ") {
		t.Fatalf("suite simulated locally despite remote hit:\n%s", log.String())
	}
	if len(sources) != 1 || sources[0] != SourceRemote {
		t.Fatalf("observed sources = %v, want [%v]", sources, SourceRemote)
	}

	// Second call: memo hit, remote not consulted again.
	if _, err := s.RunCell(cell); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("memoized cell re-dispatched (calls=%d)", calls)
	}
	if sources[len(sources)-1] != SourceMemo {
		t.Fatalf("second serve source = %v, want memo", sources[len(sources)-1])
	}
}

// TestRemoteHookFallsBack checks graceful degradation: ok=false from the
// hook (no workers, an exhausted dispatch budget) must simulate locally
// and succeed — a worker-less coordinator behaves like a plain
// daemon.
func TestRemoteHookFallsBack(t *testing.T) {
	s := NewSuite(Small)
	var log bytes.Buffer
	s.Verbose = &log
	s.Remote = func(Cell) (CellResult, bool) { return CellResult{}, false }

	w := pick("LU")[0]
	if _, err := s.run(s.Base(), w); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "run ") {
		t.Fatalf("fallback did not simulate locally:\n%s", log.String())
	}
}

// TestRemoteErrorPreservedAndCached checks the failed-cell path: a worker's
// structured error result must keep its wire kind and exact text through
// the coordinator's memo (so an error row renders the same bytes as a local
// failure) and must not be re-dispatched on the next serve.
func TestRemoteErrorPreservedAndCached(t *testing.T) {
	s := NewSuite(Small)
	calls := 0
	s.Remote = func(c Cell) (CellResult, bool) {
		calls++
		return CellResult{Schema: SchemaVersion, Key: c.Key(), ErrKind: "stall", Err: "LU on p16: stall"}, true
	}
	w := pick("LU")[0]
	_, err := s.run(s.Base(), w)
	if err == nil {
		t.Fatal("want the worker's error")
	}
	if ErrKind(err) != "stall" {
		t.Fatalf("kind = %q, want stall", ErrKind(err))
	}
	if err.Error() != "LU on p16: stall" {
		t.Fatalf("error text rewrapped: %q", err.Error())
	}
	if _, err2 := s.run(s.Base(), w); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("cached error differs: %v", err2)
	}
	if calls != 1 {
		t.Fatalf("deterministic remote error re-dispatched (calls=%d)", calls)
	}
}

// TestRetryableKindMirrorsDeterministicErr holds each typed failure's kind
// across the wire. The fleet coordinator sees a worker's answer only after
// the typed error has been flattened into a CellResult, so the kind read
// back from the document (NewCellResult, encode, decode, resultErr,
// ErrKind) must be the typed error's kind: a worker's verdict reads the
// same on the coordinator as a local failure would. It also checks that
// every typed failure has a row of its own in the taxonomy table.
func TestRetryableKindMirrorsDeterministicErr(t *testing.T) {
	taxonomy := []error{
		&svmsim.StallError{},
		&svmsim.LostPageError{},
		&svmsim.LinkFailureError{},
		&svmsim.DeadlockError{},
		&svmsim.LivelockError{},
		&svmsim.ThreadPanicError{},
		&UncalibratedError{},
		&InfeasibleError{},
	}
	for _, typed := range taxonomy {
		kind := ErrKind(typed)
		if kind == "" || kind == "failed" {
			t.Fatalf("%T has no structured kind (got %q)", typed, kind)
		}
		// Suite.run wraps a cell's error with workload and key context.
		for _, err := range []error{typed, fmt.Errorf("LU on p16: %w", typed)} {
			data, encErr := EncodeCellResult(NewCellResult("k", nil, err))
			if encErr != nil {
				t.Fatal(encErr)
			}
			res, decErr := DecodeCellResult(data)
			if decErr != nil {
				t.Fatal(decErr)
			}
			back := ErrKind(resultErr(res))
			if back != kind || res.ErrKind != kind {
				t.Errorf("%T: kind %q reads back as %q (document %q)", typed, kind, back, res.ErrKind)
			}
		}
	}
}
