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
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "<none>"
		}
		t.Fatalf("%s: encoding drifted from pinned schema v%d at line %d:\ngot   %s\nwant  %s",
			name, SchemaVersion, i+1, line(g), line(w))
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
		{Workload: "FFT", PageBytes: 32 << 20}, // a page larger than the 16 MiB heap
	}
	for _, spec := range cases {
		if _, err := s.ResolveCell(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// TestResolveCellRejectsNegativeSizes: a negative topology or size field is
// an error naming the field, not a silent "keep the baseline".
func TestResolveCellRejectsNegativeSizes(t *testing.T) {
	s := smallSuite(1)
	for _, tc := range []struct {
		spec CellSpec
		want string
	}{
		{CellSpec{Workload: "FFT", Procs: -4}, "exp: negative procs -4 (zero keeps the baseline)"},
		{CellSpec{Workload: "FFT", PPN: -1}, "exp: negative ppn -1 (zero keeps the baseline)"},
		{CellSpec{Workload: "FFT", PageBytes: -4096}, "exp: negative page_bytes -4096 (zero keeps the baseline)"},
		{CellSpec{Workload: "FFT", NIsPerNode: -1}, "exp: negative nis_per_node -1 (zero keeps the baseline)"},
	} {
		if _, err := s.ResolveCell(tc.spec); err == nil || err.Error() != tc.want {
			t.Errorf("spec %+v: error %v, want %q", tc.spec, err, tc.want)
		}
	}
}

// TestCellVocabulary covers every accepted and rejected spelling of the
// three named choices, through each resolver that reads them: any letter
// case is accepted, the empty string selects the default, the alias
// roundrobin reads as round-robin, and a rejection's text names the valid
// spellings. Every value writes back a spelling that parses to itself.
func TestCellVocabulary(t *testing.T) {
	s := smallSuite(1)
	type spelling struct {
		in   string
		want any    // the parsed value when err is empty
		err  string // the exact rejection text
	}
	modeErr := func(in string) string {
		return fmt.Sprintf("exp: unknown protocol mode %q (want hlrc or aurc)", in)
	}
	modes := []spelling{
		{"", svmsim.HLRC, ""}, {"hlrc", svmsim.HLRC, ""}, {"HLRC", svmsim.HLRC, ""},
		{"aurc", svmsim.AURC, ""}, {"AuRc", svmsim.AURC, ""},
		{"foo", nil, modeErr("foo")}, {"tso", nil, modeErr("tso")}, {" hlrc", nil, modeErr(" hlrc")},
	}
	policyErr := func(in string) string {
		return fmt.Sprintf("exp: unknown interrupt policy %q (want static or round-robin)", in)
	}
	requestErr := func(in string) string {
		return fmt.Sprintf("exp: unknown request handling %q (want interrupts, polling or dedicated)", in)
	}
	for _, field := range []struct {
		name      string
		spellings []spelling
		resolve   func(string) (any, error)
	}{
		{"mode", modes, func(in string) (any, error) {
			c, err := s.ResolveCell(CellSpec{Workload: "FFT", Mode: in})
			return c.Cfg.Proto.Mode, err
		}},
		{"sweep mode", modes, func(in string) (any, error) {
			_, mode, err := s.ResolveSweep(SweepSpec{Param: "interrupt", Mode: in})
			return mode, err
		}},
		{"intr_policy", []spelling{
			{"", svmsim.IntrStatic, ""}, {"static", svmsim.IntrStatic, ""}, {"Static", svmsim.IntrStatic, ""},
			{"round-robin", svmsim.IntrRoundRobin, ""}, {"ROUND-ROBIN", svmsim.IntrRoundRobin, ""},
			{"roundrobin", svmsim.IntrRoundRobin, ""}, {"RoundRobin", svmsim.IntrRoundRobin, ""},
			{"chaotic", nil, policyErr("chaotic")}, {"round robin", nil, policyErr("round robin")},
		}, func(in string) (any, error) {
			c, err := s.ResolveCell(CellSpec{Workload: "FFT", IntrPolicy: in})
			return c.Cfg.IntrPolicy, err
		}},
		{"requests", []spelling{
			{"", svmsim.RequestInterrupts, ""}, {"interrupts", svmsim.RequestInterrupts, ""},
			{"Interrupts", svmsim.RequestInterrupts, ""}, {"polling", svmsim.RequestPolling, ""},
			{"POLLING", svmsim.RequestPolling, ""}, {"dedicated", svmsim.RequestDedicated, ""},
			{"Dedicated", svmsim.RequestDedicated, ""},
			{"smoke-signals", nil, requestErr("smoke-signals")}, {"interrupt", nil, requestErr("interrupt")},
		}, func(in string) (any, error) {
			c, err := s.ResolveCell(CellSpec{Workload: "FFT", Requests: in})
			return c.Cfg.Requests, err
		}},
	} {
		for _, sp := range field.spellings {
			got, err := field.resolve(sp.in)
			switch {
			case sp.err != "" && (err == nil || err.Error() != sp.err):
				t.Errorf("%s %q: error %v, want %s", field.name, sp.in, err, sp.err)
			case sp.err == "" && (err != nil || got != sp.want):
				t.Errorf("%s %q: %v, %v; want %v", field.name, sp.in, got, err, sp.want)
			}
		}
	}

	for _, m := range []svmsim.Mode{svmsim.HLRC, svmsim.AURC} {
		if got, err := Modes.Parse(Modes.Name(m)); got != m || err != nil {
			t.Errorf("mode %v writes %q, which parses to %v, %v", m, Modes.Name(m), got, err)
		}
	}
	for _, p := range []svmsim.IntrPolicy{svmsim.IntrStatic, svmsim.IntrRoundRobin} {
		if got, err := IntrPolicies.Parse(IntrPolicies.Name(p)); got != p || err != nil {
			t.Errorf("policy %v writes %q, which parses to %v, %v", p, IntrPolicies.Name(p), got, err)
		}
	}
	for _, h := range []svmsim.RequestHandling{svmsim.RequestInterrupts, svmsim.RequestPolling, svmsim.RequestDedicated} {
		if got, err := RequestSchemes.Parse(RequestSchemes.Name(h)); got != h || err != nil {
			t.Errorf("handling %v writes %q, which parses to %v, %v", h, RequestSchemes.Name(h), got, err)
		}
	}
	if got := IntrPolicies.Name(svmsim.IntrRoundRobin); got != "round-robin" {
		t.Errorf("round-robin delivery writes %q, want the canonical round-robin", got)
	}
}

// TestErrKindTaxonomy pins the wire kind of every typed failure, bare and
// wrapped. A failed document without a kind reads back as "failed".
func TestErrKindTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		kind string
	}{
		{&svmsim.StallError{NowCycles: 7}, "stall"},
		{&svmsim.LostPageError{}, "lost_page"},
		{&svmsim.LinkFailureError{}, "link_failure"},
		{&svmsim.DeadlockError{NowCycles: 9}, "deadlock"},
		{&svmsim.LivelockError{NowCycles: 9, Events: 10}, "livelock"},
		{&svmsim.ThreadPanicError{Thread: "p0", Value: "boom"}, "panic"},
		{&UncalibratedError{Workload: "FFT", Mode: "hlrc", Reason: "no calibration has run"}, "uncalibrated"},
		{&InfeasibleError{Workload: "FFT", Mode: "hlrc", MinSpeedup: 12, Best: 9.1}, "infeasible"},
		{errors.New("setup exploded"), "failed"},
	}
	for _, c := range cases {
		// Wrapping (as Suite.run does with workload and key context) must
		// not change the classification.
		for _, err := range []error{c.err, fmt.Errorf("LU on p16: %w", c.err)} {
			if k := ErrKind(err); k != c.kind {
				t.Errorf("ErrKind(%v) = %q, want %q", err, k, c.kind)
			}
		}
	}
	if ErrKind(nil) != "" {
		t.Errorf("ErrKind(nil) = %q, want empty", ErrKind(nil))
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
	if _, err := s.RunCell(Cell{Cfg: s.Base(), W: w}); ErrKind(err) != "failed" || err.Error() != "boom" {
		t.Errorf("disk cell without a kind: kind %q, err %v", ErrKind(err), err)
	}
	s = NewSuite(Small)
	s.Answer = func(c Cell) (CellResult, bool) {
		return CellResult{Schema: SchemaVersion, Key: c.Key(), Err: "boom"}, true
	}
	if _, err := s.RunCell(Cell{Cfg: s.Base(), W: w}); ErrKind(err) != "failed" || err.Error() != "boom" {
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
