package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runFixture runs the analyzers over one fixture directory.
func runFixture(t *testing.T, dir string, opts Options) *Result {
	t.Helper()
	opts.Dir = "."
	opts.Patterns = []string{dir}
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("Run(%s): %v", dir, err)
	}
	return res
}

// TestFixtures compares each fixture directory against its expect.txt golden
// (absent golden = expect a clean run). The goldens pin messages, positions
// and analyzer attribution, so a behavior change in any analyzer shows up as
// a readable diff.
func TestFixtures(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("testdata", "src", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && fi.IsDir() {
			dirs = append(dirs, m)
		}
	}
	if len(dirs) < 10 {
		t.Fatalf("expected at least 10 fixture dirs, found %d", len(dirs))
	}
	for _, dir := range dirs {
		t.Run(strings.TrimPrefix(filepath.ToSlash(dir), "testdata/src/"), func(t *testing.T) {
			res := runFixture(t, dir, Options{})
			var got []string
			for _, f := range res.Findings {
				got = append(got, filepath.ToSlash(f.String()))
			}
			var want []string
			if data, err := os.ReadFile(filepath.Join(dir, "expect.txt")); err == nil {
				for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
					if line != "" {
						want = append(want, line)
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("finding %d:\n got %s\nwant %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestGoodFixturesAreCovered guards against a fixture silently testing
// nothing: every analyzer must have at least one bad and one good fixture.
func TestGoodFixturesAreCovered(t *testing.T) {
	for _, name := range AnalyzerNames() {
		for _, sub := range []string{"bad", "good"} {
			dir := filepath.Join("testdata", "src", name, sub)
			if _, err := os.Stat(dir); err != nil {
				t.Errorf("analyzer %s is missing its %s fixture: %v", name, sub, err)
			}
		}
	}
}

// TestSuppression checks that a reasoned //svmlint:ignore moves the finding
// to the suppressed list, reason attached, without surfacing it as active.
func TestSuppression(t *testing.T) {
	res := runFixture(t, filepath.Join("testdata", "src", "wallclock", "suppressed"), Options{})
	if len(res.Findings) != 0 {
		t.Fatalf("active findings on suppressed fixture: %v", res.Findings)
	}
	if len(res.Suppressed) != 1 {
		t.Fatalf("suppressed = %v, want exactly 1", res.Suppressed)
	}
	s := res.Suppressed[0]
	if s.Analyzer != "wallclock" || !s.Suppressed {
		t.Errorf("suppressed finding = %+v", s)
	}
	if want := "fixture progress meter; its reading is printed, never simulated"; s.Reason != want {
		t.Errorf("reason = %q, want %q", s.Reason, want)
	}
}

// TestJSONRoundTrip checks the gate's exit codes, 1 on findings and 0 on a
// clean fixture, and that -json output parses back into the same findings
// the library API reports.
func TestJSONRoundTrip(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-json", filepath.Join("testdata", "src", "wallclock", "good")}, &out, &errb); code != 0 {
		t.Fatalf("exit on clean fixture = %d, want 0 (out: %s, stderr: %s)", code, out.String(), errb.String())
	}
	out.Reset()
	dir := filepath.Join("testdata", "src", "wallclock", "bad")
	if code := Main([]string{"-json", dir}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
	var decoded []Finding
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	res := runFixture(t, dir, Options{})
	if len(decoded) != len(res.Findings) {
		t.Fatalf("JSON has %d findings, Run has %d", len(decoded), len(res.Findings))
	}
	for i := range decoded {
		if decoded[i] != res.Findings[i] {
			t.Errorf("finding %d differs:\nJSON %+v\n Run %+v", i, decoded[i], res.Findings[i])
		}
	}
}

// TestEnableDisable checks the analyzer selection flags. The mixed fixture
// trips both the map-order check (detmap) and the host-clock check
// (wallclock), so both must be disabled for a clean run.
func TestEnableDisable(t *testing.T) {
	dir := filepath.Join("testdata", "src", "detmap", "mixed")
	if res := runFixture(t, dir, Options{Disable: []string{"detmap", "wallclock"}}); len(res.Findings) != 0 {
		t.Errorf("-disable detmap,wallclock still reports: %v", res.Findings)
	}
	if res := runFixture(t, dir, Options{Enable: []string{"floatcmp"}}); len(res.Findings) != 0 {
		t.Errorf("-enable floatcmp reports detmap or wallclock findings: %v", res.Findings)
	}
	if res := runFixture(t, dir, Options{Enable: []string{"detmap"}}); len(res.Findings) == 0 {
		t.Error("-enable detmap reports nothing on the mixed fixture")
	}
}

// TestUnknownAnalyzer checks flag validation and the usage exit code.
func TestUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-enable", "bogus", "."}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer message", errb.String())
	}
}

// TestStaleSuppression checks that an ignore comment matching no finding is
// itself reported.
func TestStaleSuppression(t *testing.T) {
	// The loader resolves packages relative to the module, so the synthetic
	// fixture must live under testdata rather than t.TempDir().
	src := filepath.Join("testdata", "src", "stale")
	if err := os.MkdirAll(src, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(src) })
	file := filepath.Join(src, "stale.go")
	code := "package cfg\n\n//svmlint:ignore detmap nothing here iterates a map\nfunc f() int { return 1 }\n"
	if err := os.WriteFile(file, []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	res := runFixture(t, src, Options{})
	if len(res.Findings) != 1 || res.Findings[0].Analyzer != "svmlint" ||
		!strings.Contains(res.Findings[0].Message, "suppresses nothing") {
		t.Fatalf("findings = %v, want one stale-suppression report", res.Findings)
	}
}

// TestRepoClean runs the full analyzer set over the real repository: the
// tree must stay clean (all exceptions carry reasoned suppressions). This is
// the same gate `make lint` enforces; running it here keeps `go test ./...`
// sufficient to catch regressions.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint is not short")
	}
	res, err := Run(Options{Dir: ".", Patterns: []string{filepath.Join("..", "..") + "/..."}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f.String())
	}
	if len(res.Suppressed) == 0 {
		t.Error("expected reasoned suppressions in the tree, found none")
	}
}
