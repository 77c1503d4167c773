package lint

import (
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

// TestNewAnalyzerSuppressions checks that each analyzer with a suppressed
// fixture honors a reasoned //svmlint:ignore: the fixture must come back
// clean with the findings parked on the suppressed list.
func TestNewAnalyzerSuppressions(t *testing.T) {
	for _, name := range []string{"parkdiscipline", "wallclock", "statwire"} {
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

// TestParkDisciplineRepoShapes pins the simulator clean: the root package
// and the packages it depends on import no sync. It also checks that the
// rule applies to each of them, that is, that none depends on the root, so
// a package moving to the harness side shows up here.
func TestParkDisciplineRepoShapes(t *testing.T) {
	patterns := []string{filepath.Join("..", ".."), filepath.Join("..", "apps") + "/..."}
	for _, dir := range []string{"engine", "interrupts", "machine", "memsys", "network", "node", "proto", "shm", "stats", "trace"} {
		patterns = append(patterns, filepath.Join("..", dir))
	}
	res, err := Run(Options{Dir: ".", Patterns: patterns, Enable: []string{"parkdiscipline"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f.String())
	}

	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Errorf("loaded %d packages, want the root and the 19 it depends on", len(pkgs))
	}
	for _, pkg := range pkgs {
		if dependsOn(pkg.Types, loader.ModulePath) {
			t.Errorf("%s depends on %s, so parkdiscipline does not apply to it", pkg.Path, loader.ModulePath)
		}
	}
}
