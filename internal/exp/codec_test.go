package exp

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svmsim"
	"svmsim/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixtureRun builds a deterministic RunStats populating every field group,
// so the golden encoding pins the whole stats wire surface.
func fixtureRun() *svmsim.RunStats {
	r := stats.NewRun(2, 1)
	for i := range r.Procs {
		p := &r.Procs[i]
		for k := 0; k < int(stats.NumTimeKinds); k++ {
			p.Time[k] = uint64(100*i + k)
		}
		p.PageFaults = 11
		p.PageFetches = 7
		p.LocalLocks = 5
		p.RemoteLocks = 3
		p.Barriers = 2
		p.MsgsSent = 42
		p.BytesSent = 4096
		p.L1Hits = 1000
		p.L2Hits = 100
		p.Misses = 10
		p.WBHits = 1
		p.Interrupts = 6
		p.DiffsCreated = 4
		p.DiffWords = 64
		p.UpdatesSent = 0
		p.Busy = 123456
	}
	r.Cycles = 987654
	r.Net = stats.Net{Dropped: 1, DupsInjected: 2, Dups: 3, Retransmits: 4,
		AcksSent: 5, NacksSent: 6, TimeoutFires: 7, QueueStalls: 8, CrashDrops: 9}
	r.Recovery = stats.Recovery{HeartbeatsSent: 10, SuspectCycles: 20,
		PagesRehomed: 3, PagesLost: 1, LocksReclaimed: 2, ReconfigRounds: 1,
		RecoveryCycles: 5000}
	return r
}

// checkGolden compares an encoding against its pinned golden file
// (testdata/<name>); -update rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding drifted from pinned schema v%d.\ngot:\n%s\nwant:\n%s",
			name, SchemaVersion, got, want)
	}
}

// TestGoldenCellResult pins the v1 encoding of a successful cell result —
// the exact bytes the disk cache stores, cmd/sweep -cell prints and the
// daemon serves.
func TestGoldenCellResult(t *testing.T) {
	res := NewCellResult("FFT|p16/n4/...", fixtureRun(), nil)
	data, err := EncodeCellResult(res)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cellresult.v1.golden.json", data)

	back, err := DecodeCellResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key != res.Key || back.Run == nil || back.Run.Cycles != res.Run.Cycles {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestGoldenCellResultError pins the structured-error encoding, including
// the err_kind that classifies typed simulator failures.
func TestGoldenCellResultError(t *testing.T) {
	stall := error(&svmsim.StallError{NowCycles: 12345, Reason: "no progress"})
	res := NewCellResult("Radix|p16/...", nil, stall)
	if res.ErrKind != "stall" {
		t.Fatalf("stall classified as %q", res.ErrKind)
	}
	data, err := EncodeCellResult(res)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cellresult-error.v1.golden.json", data)
}

// TestGoldenSweepResult pins the sweep-table encoding, including the
// null-for-NaN convention of degraded cells.
func TestGoldenSweepResult(t *testing.T) {
	res := SweepResult{
		Schema: SchemaVersion,
		Param:  "interrupt",
		Mode:   "hlrc",
		Table: TableResult{
			ID: "Sweep", Title: "Speedup vs interrupt", Cols: []string{"0", "1k"},
			Rows: []RowResult{
				{Name: "FFT", Values: []Float{1.5, Float(math.NaN())}},
				{Name: "Radix", Err: "stall: no progress"},
			},
		},
	}
	data, err := EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweepresult.v1.golden.json", data)

	back, err := DecodeSweepResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(back.Table.Rows[0].Values[1])) {
		t.Fatalf("null did not decode to NaN: %v", back.Table.Rows[0].Values)
	}
}

// TestGoldenCellSpec pins the spec encoding (the daemon's POST body) and
// its round trip, pointer fields included.
func TestGoldenCellSpec(t *testing.T) {
	zero := uint64(0)
	bw := 0.5
	spec := CellSpec{
		Workload:           "FFT",
		Procs:              4,
		PPN:                2,
		Mode:               "aurc",
		HostOverheadCycles: &zero,
		IOBytesPerCycle:    &bw,
		PageBytes:          4096,
		IntrPolicy:         "round-robin",
		Requests:           "polling",
	}
	data, err := encodeDoc(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cellspec.v1.golden.json", data)
}

// TestDecodeRejectsOtherSchemas: a document from a future schema version is
// a versioned error, not a misparse.
func TestDecodeRejectsOtherSchemas(t *testing.T) {
	if _, err := DecodeCellResult([]byte(`{"schema":99,"key":"x"}`)); err == nil {
		t.Fatal("schema 99 accepted")
	}
	if _, err := DecodeSweepResult([]byte(`{"schema":0}`)); err == nil {
		t.Fatal("schema 0 accepted")
	}
	s := smallSuite(1)
	if _, err := s.ResolveCell(CellSpec{Schema: 99, Workload: "FFT"}); err == nil {
		t.Fatal("spec schema 99 accepted")
	}
}

// TestResolveCellDefaults: an empty spec (workload only) resolves to the
// suite's baseline cell, so spec-addressed and Base()-addressed runs share
// one cache key.
func TestResolveCellDefaults(t *testing.T) {
	s := smallSuite(1)
	c, err := s.ResolveCell(CellSpec{Workload: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	base := Cell{Cfg: s.Base(), W: c.W}
	if c.Key() != base.Key() {
		t.Fatalf("default spec diverges from baseline:\n%s\nvs\n%s", c.Key(), base.Key())
	}
}

// TestResolveCellOverrides: every spec field lands in the configuration.
func TestResolveCellOverrides(t *testing.T) {
	s := smallSuite(1)
	zero, intr := uint64(0), uint64(10000)
	bw := 2.0
	c, err := s.ResolveCell(CellSpec{
		Workload:           "Water-nsq",
		Procs:              8,
		PPN:                4,
		Mode:               "aurc",
		HostOverheadCycles: &zero,
		NIOccupancyCycles:  &zero,
		IOBytesPerCycle:    &bw,
		IntrHalfCostCycles: &intr,
		PageBytes:          8192,
		IntrPolicy:         "round-robin",
		NIsPerNode:         2,
		AllLocal:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Cfg
	if cfg.Procs != 8 || cfg.ProcsPerNode != 4 || cfg.Proto.Mode != svmsim.AURC ||
		cfg.Net.HostOverheadCycles != 0 || cfg.Net.NIOccupancyCycles != 0 ||
		cfg.Net.IOBytesPerCycle != 2.0 || cfg.IntrHalfCostCycles != 10000 ||
		cfg.Proto.PageBytes != 8192 || cfg.IntrPolicy != svmsim.IntrRoundRobin ||
		cfg.NIsPerNode != 2 || !cfg.Proto.AllLocal {
		t.Fatalf("overrides lost: %+v", cfg)
	}
}

// TestResolveCellRejects: unknown names and invalid topologies are errors.
func TestResolveCellRejects(t *testing.T) {
	s := smallSuite(1)
	cases := []CellSpec{
		{Workload: "NoSuchApp"},
		{Workload: "FFT", Mode: "tso"},
		{Workload: "FFT", IntrPolicy: "chaotic"},
		{Workload: "FFT", Requests: "smoke-signals"},
		{Workload: "FFT", Procs: 5, PPN: 2}, // 5 % 2 != 0
		{Workload: "FFT", Requests: "dedicated", PPN: 1, Procs: 4},
	}
	for _, spec := range cases {
		if _, err := s.ResolveCell(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// TestErrKindTaxonomy pins the wire kind and the retry disposition of every
// typed failure, seen both ways: the local retry loop judges the typed error
// (deterministicErr), the fleet coordinator judges only the wire kind
// (RetryableKind), and the two must agree. Deterministic modeled failures
// skip the retry budget; a thread panic may be environmental and is allowed
// to retry. A failed document without a kind reads back as "failed".
func TestErrKindTaxonomy(t *testing.T) {
	cases := []struct {
		err           error
		kind          string
		deterministic bool
	}{
		{&svmsim.StallError{NowCycles: 7}, "stall", true},
		{&svmsim.LostPageError{}, "lost_page", true},
		{&svmsim.LinkFailureError{}, "link_failure", true},
		{&svmsim.DeadlockError{NowCycles: 9}, "deadlock", true},
		{&svmsim.LivelockError{NowCycles: 9, Events: 10}, "livelock", true},
		{&svmsim.ThreadPanicError{Thread: "p0", Value: "boom"}, "panic", false},
		{&UncalibratedError{Workload: "FFT", Mode: "hlrc", Reason: "no calibration has run"}, "uncalibrated", true},
		{&InfeasibleError{Workload: "FFT", Mode: "hlrc", MinSpeedup: 12, Best: 9.1}, "infeasible", true},
		{&JobTimeoutError{Key: "k", Attempt: 2}, "job_timeout", false},
		{&WorkerLostError{Worker: "w1-e1", Key: "k"}, "worker_lost", false},
		{&RedispatchExhaustedError{Key: "k", Attempts: 3, Last: "refused"}, "redispatch_exhausted", false},
		{errors.New("setup exploded"), "failed", false},
	}
	for _, c := range cases {
		// Wrapping (as Suite.run does with workload and key context) must
		// not change the classification.
		for _, err := range []error{c.err, fmt.Errorf("LU on p16: %w", c.err)} {
			if k := ErrKind(err); k != c.kind {
				t.Errorf("ErrKind(%v) = %q, want %q", err, k, c.kind)
			}
			if d := deterministicErr(err); d != c.deterministic {
				t.Errorf("deterministicErr(%v) = %v, want %v", err, d, c.deterministic)
			}
		}
		if r := RetryableKind(c.kind); r != !c.deterministic {
			t.Errorf("RetryableKind(%q) = %v, want %v", c.kind, r, !c.deterministic)
		}
	}
	if ErrKind(nil) != "" {
		t.Errorf("ErrKind(nil) = %q, want empty", ErrKind(nil))
	}
	if RetryableKind("") {
		t.Error("empty kind (success) must not be retryable")
	}
	if !RetryableKind("some_future_kind") {
		t.Error("unknown kinds must be retryable")
	}

	// A failed document with no err_kind, from the disk cache or from a
	// fleet worker, reads back as "failed" with its text intact.
	w := pick("LU")[0]
	s := NewSuite(Small)
	s.CacheDir = t.TempDir()
	key := Cell{Cfg: s.Base(), W: w}.Key()
	data, err := EncodeCellResult(CellResult{Schema: SchemaVersion, Key: key, Err: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cellPath(s.CacheDir, key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.run(s.Base(), w); ErrKind(err) != "failed" || err.Error() != "boom" {
		t.Errorf("disk cell without a kind: kind %q, err %v", ErrKind(err), err)
	}
	s = NewSuite(Small)
	s.Remote = func(c Cell) (CellResult, bool) {
		return CellResult{Schema: SchemaVersion, Key: c.Key(), Err: "boom"}, true
	}
	if _, err := s.run(s.Base(), w); ErrKind(err) != "failed" || err.Error() != "boom" {
		t.Errorf("remote cell without a kind: kind %q, err %v", ErrKind(err), err)
	}
}

// TestErrKindSurvivesDiskCache: a typed failure cached to disk comes back
// with the same structured kind after the type itself is gone.
func TestErrKindSurvivesDiskCache(t *testing.T) {
	stall := error(&svmsim.StallError{NowCycles: 7})
	if k := ErrKind(stall); k != "stall" {
		t.Fatalf("stall → %q", k)
	}
	data, err := EncodeCellResult(NewCellResult("k", nil, stall))
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCellResult(data)
	if err != nil {
		t.Fatal(err)
	}
	cached := resultErr(back)
	if k := ErrKind(cached); k != "stall" {
		t.Fatalf("kind lost across cache: %q", k)
	}
	if !errors.As(cached, new(*cachedError)) {
		t.Fatal("cachedError not unwrappable")
	}
}

// TestSelectWorkloads: strict name resolution, presentation order, empty =
// all.
func TestSelectWorkloads(t *testing.T) {
	all, err := SelectWorkloads(nil)
	if err != nil || len(all) != len(svmsim.Workloads()) {
		t.Fatalf("empty selection: %v, %d workloads", err, len(all))
	}
	sel, err := SelectWorkloads([]string{"radix", "FFT"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "FFT" || sel[1].Name != "Radix" {
		t.Fatalf("selection order not presentation order: %v", names(sel))
	}
	if _, err := SelectWorkloads([]string{"FFT", "Quake"}); err == nil ||
		!strings.Contains(err.Error(), "Quake") {
		t.Fatalf("unknown name not rejected: %v", err)
	}
}

func names(wls []svmsim.Workload) []string {
	var out []string
	for _, w := range wls {
		out = append(out, w.Name)
	}
	return out
}
