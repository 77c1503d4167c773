package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"svmsim/internal/exp"
)

// runSweep runs the built command with args and returns its stdout and
// stderr; a non-zero exit fails the test.
func runSweep(t *testing.T, bin string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("sweep %v: %v\n%s", args, err, errOut.Bytes())
	}
	return out.Bytes(), errOut.Bytes()
}

// TestTwinPruneMatchesSimulation runs the interrupt sweep of FFT and LU
// twice, fully simulated and with -twin-prune. The pruned run must simulate
// strictly fewer cells and log the reduction, mark its predicted cells in
// the document, and render a table of the same shape whose every value is
// within 15% of the simulated one (the model's confidence gate is 5%; 15%
// leaves room for the interval being an estimate, not a bound). The
// unpruned document must carry no twin summary, so it stays byte-identical
// to the encoding from before the twin.
func TestTwinPruneMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command and runs two sweeps")
	}
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sweep: %v\n%s", err, out)
	}
	args := []string{"-param", "interrupt", "-apps", "FFT,LU", "-json"}
	plainDoc, _ := runSweep(t, bin, args...)
	prunedDoc, prunedLog := runSweep(t, bin, append(args, "-twin-prune")...)

	var keys map[string]json.RawMessage
	if err := json.Unmarshal(plainDoc, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["twin"]; ok {
		t.Errorf("the unpruned document has a twin summary:\n%s", plainDoc)
	}
	plain, err := exp.DecodeSweepResult(plainDoc)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := exp.DecodeSweepResult(prunedDoc)
	if err != nil {
		t.Fatal(err)
	}

	tw := pruned.Twin
	if tw == nil || tw.Predicted <= 0 || len(tw.PredictedCells) != tw.Predicted {
		t.Fatalf("pruned twin summary %+v, want predicted cells listed", tw)
	}
	m := regexp.MustCompile(`(?m)^twin-prune: simulated (\d+) of (\d+) cells .* fewer simulations$`).FindSubmatch(prunedLog)
	if m == nil {
		t.Fatalf("no reduction line in the pruned run's log:\n%s", prunedLog)
	}
	simulated, _ := strconv.Atoi(string(m[1]))
	total, _ := strconv.Atoi(string(m[2]))
	if simulated >= total || simulated != tw.Simulated || total != tw.Simulated+tw.Predicted {
		t.Errorf("log says %d of %d cells simulated, document says %d simulated and %d predicted; want strictly fewer simulated",
			simulated, total, tw.Simulated, tw.Predicted)
	}

	if len(pruned.Table.Rows) != len(plain.Table.Rows) || len(plain.Table.Rows) == 0 {
		t.Fatalf("pruned table has %d rows, simulated %d", len(pruned.Table.Rows), len(plain.Table.Rows))
	}
	for i, want := range plain.Table.Rows {
		got := pruned.Table.Rows[i]
		if got.Name != want.Name || len(got.Values) != len(want.Values) || len(want.Values) != len(plain.Table.Cols) {
			t.Fatalf("row %d: pruned %s with %d values, simulated %s with %d", i, got.Name, len(got.Values), want.Name, len(want.Values))
		}
		for j, w := range want.Values {
			a, b := float64(w), float64(got.Values[j])
			ref := math.Max(math.Abs(a), 1e-9)
			if !(math.Abs(a-b)/ref <= 0.15) {
				t.Errorf("%s, %s: simulated %g, pruned %g (more than 15%% apart)", want.Name, plain.Table.Cols[j], a, b)
			}
		}
	}
}
