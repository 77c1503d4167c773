//go:build !race

// A regeneration adds no concurrency coverage, and `make race` already
// spends most of its timeout in this package, so the race build skips it.

package exp

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// experimentsDoc is the document whose "Reproduced tables" block records the
// output of cmd/experiments.
const experimentsDoc = "../../EXPERIMENTS.md"

// TestReproducedTables is the fixed point as a test: it regenerates every
// experiment on sharedSuite and requires the EXPERIMENTS.md "Reproduced
// tables" block to match the rendered tables byte for byte, ignoring
// "(elapsed …)" lines. A mismatch names the table and its first differing
// row. A change that moves tables on purpose rewrites the block with
// `go test ./internal/exp -run TestReproducedTables -update`, so the moved
// rows show up in review.
func TestReproducedTables(t *testing.T) {
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := reproducedBlock(doc)
	if err != nil {
		t.Fatal(err)
	}
	var ids, tables []string
	for _, e := range sharedSuite.Experiments() {
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		ids = append(ids, e.ID)
		tables = append(tables, strings.TrimSuffix(tbl.String(), "\n"))
	}
	// cmd/experiments prints each table, a blank line, its elapsed line and
	// another blank line; the block drops the elapsed lines and the blank
	// lines after the last table.
	want := strings.Join(tables, "\n\n\n") + "\n"
	if *updateGolden {
		out := append(append(append([]byte(nil), doc[:lo]...), want...), doc[hi:]...)
		if err := os.WriteFile(experimentsDoc, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := dropElapsed(string(doc[lo:hi])); got != want {
		t.Fatalf("%s: the Reproduced tables block is stale (rerun with -update if the change is intended): %s",
			experimentsDoc, firstDifference(got, ids, tables))
	}

	fft, err := WorkloadByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	run, err := sharedSuite.RunCell(Cell{Cfg: sharedSuite.Base(), W: fft})
	if err != nil {
		t.Fatal(err)
	}
	if run.Cycles != 3_641_567 {
		t.Fatalf("FFT at the achievable point ran %d cycles, want 3641567", run.Cycles)
	}
}

// reproducedBlock returns the byte span of the code block that follows the
// "## Reproduced tables" heading: from the line after the opening fence to
// the start of the closing fence.
func reproducedBlock(doc []byte) (lo, hi int, err error) {
	h := bytes.Index(doc, []byte("\n## Reproduced tables\n"))
	if h < 0 {
		return 0, 0, fmt.Errorf("%s: no \"## Reproduced tables\" heading", experimentsDoc)
	}
	open := bytes.Index(doc[h:], []byte("\n```\n"))
	if open < 0 {
		return 0, 0, fmt.Errorf("%s: no code block after the Reproduced tables heading", experimentsDoc)
	}
	lo = h + open + len("\n```\n")
	end := bytes.Index(doc[lo:], []byte("```\n"))
	if end < 0 {
		return 0, 0, fmt.Errorf("%s: unterminated Reproduced tables block", experimentsDoc)
	}
	return lo, lo + end, nil
}

// dropElapsed removes cmd/experiments' "(elapsed …)" lines.
func dropElapsed(block string) string {
	lines := strings.SplitAfter(block, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "(elapsed ") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "")
}

// firstDifference describes where block first departs from the rendered
// tables: the table (by experiment ID and title) and its first differing row,
// or the blank lines between tables when every table matches.
func firstDifference(block string, ids, tables []string) string {
	recorded := regexp.MustCompile("\n\n+").Split(strings.Trim(block, "\n"), -1)
	for i, tbl := range tables {
		title, _, _ := strings.Cut(tbl, "\n")
		if i >= len(recorded) {
			return fmt.Sprintf("table %s (%s) is missing", ids[i], title)
		}
		if recorded[i] == tbl {
			continue
		}
		got, want := strings.Split(recorded[i], "\n"), strings.Split(tbl, "\n")
		for r := 0; r < max(len(got), len(want)); r++ {
			g, w := "<none>", "<none>"
			if r < len(got) {
				g = got[r]
			}
			if r < len(want) {
				w = want[r]
			}
			if g != w {
				return fmt.Sprintf("table %s (%s), line %d:\nrecorded  %s\nrendered  %s", ids[i], title, r+1, g, w)
			}
		}
	}
	if len(recorded) > len(tables) {
		return fmt.Sprintf("%d tables recorded, %d rendered", len(recorded), len(tables))
	}
	return "every table matches, but the blank lines between them differ"
}
