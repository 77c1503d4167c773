package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCrossPackageFacts proves that whole-program facts flow across package
// boundaries with one object identity per field: the counter declared in
// testdata/multi/stats is written only by testdata/multi/writer, so statwire
// must stay quiet when both are loaded together and fire when the stats
// package is analyzed alone.
func TestCrossPackageFacts(t *testing.T) {
	statsDir := filepath.Join("testdata", "multi", "stats")
	writerDir := filepath.Join("testdata", "multi", "writer")

	both, err := Run(Options{Dir: ".", Patterns: []string{statsDir, writerDir}, Enable: []string{"statwire"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Findings) != 0 {
		t.Errorf("stats+writer loaded together still reports: %v", both.Findings)
	}

	alone, err := Run(Options{Dir: ".", Patterns: []string{statsDir}, Enable: []string{"statwire"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(alone.Findings) != 1 || !strings.Contains(alone.Findings[0].Message, "never written") {
		t.Errorf("stats alone = %v, want one never-written finding", alone.Findings)
	}
}

// TestBaselineWorkflow exercises the accepted-findings mechanism end to end:
// capture a baseline from a dirty fixture, then check that a rerun moves
// every finding to Result.Baselined and that the CLI exits 0.
func TestBaselineWorkflow(t *testing.T) {
	dir := filepath.Join("testdata", "src", "units", "bad")
	res := runFixture(t, dir, Options{})
	if len(res.Findings) == 0 {
		t.Fatal("fixture reports nothing; baseline test needs findings")
	}

	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBaseline(path, res); err != nil {
		t.Fatal(err)
	}

	again := runFixture(t, dir, Options{Baseline: path})
	if len(again.Findings) != 0 {
		t.Errorf("baselined run still has active findings: %v", again.Findings)
	}
	if len(again.Baselined) != len(res.Findings) {
		t.Errorf("baselined %d findings, want %d", len(again.Baselined), len(res.Findings))
	}
	for _, f := range again.Baselined {
		if !f.Baselined {
			t.Errorf("finding in Baselined without the flag: %+v", f)
		}
	}

	var out, errb bytes.Buffer
	if code := Main([]string{"-baseline", path, dir}, &out, &errb); code != 0 {
		t.Errorf("exit with baseline = %d, want 0 (out: %s)", code, out.String())
	}
}

// TestWriteBaselineFlag checks the -write-baseline capture path: it must
// exit 0, produce a file that parses, and make the next gated run clean.
func TestWriteBaselineFlag(t *testing.T) {
	dir := filepath.Join("testdata", "src", "units", "bad")
	path := filepath.Join(t.TempDir(), "baseline.json")
	var out, errb bytes.Buffer
	if code := Main([]string{"-baseline", path, "-write-baseline", dir}, &out, &errb); code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	keys, err := readBaseline(path)
	if err != nil {
		t.Fatalf("written baseline does not parse: %v", err)
	}
	if len(keys) == 0 {
		t.Fatal("written baseline is empty")
	}
	out.Reset()
	errb.Reset()
	if code := Main([]string{"-baseline", path, dir}, &out, &errb); code != 0 {
		t.Errorf("gated run after capture = %d, want 0 (out: %s)", code, out.String())
	}

	if code := Main([]string{"-write-baseline", dir}, &out, &errb); code != 2 {
		t.Errorf("-write-baseline without -baseline = %d, want usage exit 2", code)
	}
}

// TestNewAnalyzerSuppressions checks that each whole-program-era analyzer
// honors a reasoned //svmlint:ignore: the suppressed fixture must come back
// clean with the findings parked on the suppressed list.
func TestNewAnalyzerSuppressions(t *testing.T) {
	for _, name := range []string{"parkdiscipline", "simtime", "statwire", "errkind"} {
		t.Run(name, func(t *testing.T) {
			res := runFixture(t, filepath.Join("testdata", "src", name, "suppressed"), Options{})
			if len(res.Findings) != 0 {
				t.Fatalf("active findings on suppressed fixture: %v", res.Findings)
			}
			if len(res.Suppressed) == 0 {
				t.Fatal("suppressed fixture suppresses nothing")
			}
			for _, f := range res.Suppressed {
				if f.Analyzer != name {
					t.Errorf("suppressed finding from %s, want %s: %+v", f.Analyzer, name, f)
				}
				if f.Reason == "" {
					t.Errorf("suppressed finding without a reason: %+v", f)
				}
			}
		})
	}
}

// TestParkDisciplineRepoShapes pins the real harness packages clean: the
// experiment suite, the daemon and the machine layer hold their mutexes
// strictly outside the engine. A regression here is the lock-held-across-park
// deadlock shape that the engine's coroutine carriers make cheap to hit.
func TestParkDisciplineRepoShapes(t *testing.T) {
	res, err := Run(Options{
		Dir: ".",
		Patterns: []string{
			filepath.Join("..", "exp"),
			filepath.Join("..", "server"),
			filepath.Join("..", "machine"),
		},
		Enable: []string{"parkdiscipline"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f.String())
	}
}

// TestErrkindCoversFleetTaxonomy pins the real fleet error types into the
// exhaustiveness gate: internal/exp declares *WorkerLostError and
// *RedispatchExhaustedError and must keep both in ErrKind and
// deterministicErr. Loading exp (and the fleet package that raises the
// errors) with only errkind enabled must come back clean; the companion
// fixture testdata/src/errkind/fleet proves the analyzer fires when one of
// these types is dropped from a classifier.
func TestErrkindCoversFleetTaxonomy(t *testing.T) {
	res, err := Run(Options{
		Dir:      ".",
		Patterns: []string{filepath.Join("..", "exp"), filepath.Join("..", "fleet")},
		Enable:   []string{"errkind"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f.String())
	}
}

// TestErrkindInertWithoutClassifier checks the partial-load guard: a program
// that declares error types but has no ErrKind classifier must not be asked
// to be exhaustive against nothing.
func TestErrkindInertWithoutClassifier(t *testing.T) {
	src := filepath.Join("testdata", "src", "inert")
	if err := os.MkdirAll(src, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(src) })
	code := "package fail\n\n// LoneError has no classifier in this program.\ntype LoneError struct{}\n\nfunc (e *LoneError) Error() string { return \"lone\" }\n"
	if err := os.WriteFile(filepath.Join(src, "inert.go"), []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Dir: ".", Patterns: []string{src}, Enable: []string{"errkind"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Errorf("errkind fired without a classifier in the program: %v", res.Findings)
	}
}
