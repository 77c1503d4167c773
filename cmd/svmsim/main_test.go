package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runSvmsim runs the built command with args and returns its stdout, stderr
// and exit code.
func runSvmsim(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("svmsim %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestFlagsResolveAsACell pins the flag handling that goes through
// exp.Suite.ResolveCell: -best keeps the best parameter set except for the
// flags given, bad protocol and request-handling spellings are usage
// errors with the resolver's messages, -speedup divides by the tables'
// uniprocessor whatever the other flags, and -speedup adds nothing to the
// trace of the parallel run.
func TestFlagsResolveAsACell(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command and runs several simulations")
	}
	bin := filepath.Join(t.TempDir(), "svmsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building svmsim: %v\n%s", err, out)
	}

	for _, tc := range []struct {
		best, explicit []string
	}{
		{[]string{"-app", "FFT", "-best"}, []string{"-app", "FFT", "-overhead", "0", "-occupancy", "0", "-iobw", "2.0", "-intr", "0"}},
		{[]string{"-app", "FFT", "-best", "-intr", "1000"}, []string{"-app", "FFT", "-overhead", "0", "-occupancy", "0", "-iobw", "2.0", "-intr", "1000"}},
	} {
		got, _, code := runSvmsim(t, bin, tc.best...)
		want, _, _ := runSvmsim(t, bin, tc.explicit...)
		if code != 0 || got != want {
			t.Errorf("svmsim %v (exit %d):\n%s\nwant the output of svmsim %v:\n%s", tc.best, code, got, tc.explicit, want)
		}
	}
	if out, _, _ := runSvmsim(t, bin, "-app", "FFT", "-best"); !strings.Contains(out, "execution time: 1709978 cycles") {
		t.Errorf("svmsim -app FFT -best:\n%s\nwant 1709978 cycles", out)
	}

	for _, tc := range []struct {
		args       []string
		wantStderr string
	}{
		{[]string{"-mode", "foo"}, "exp: unknown protocol mode \"foo\" (want hlrc or aurc)\n"},
		{[]string{"-requests", "foo"}, "exp: unknown request handling \"foo\" (want interrupts, polling or dedicated)\n"},
		{[]string{"-app", "nope"}, "exp: unknown workload \"nope\"\n"},
	} {
		out, stderr, code := runSvmsim(t, bin, tc.args...)
		if code != 2 || stderr != tc.wantStderr || out != "" {
			t.Errorf("svmsim %v: exit %d, stdout %q, stderr %q; want exit 2 and stderr %q", tc.args, code, out, stderr, tc.wantStderr)
		}
	}

	// Polling's instrumentation tax, the page size and a dedicated protocol
	// processor belong to the parallel run; the uniprocessor stays the
	// suite baseline's 9,343,279 cycles, as in every table.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-speedup", "-requests", "polling"}, "speedup: 2.58 (ideal 13.51, uniprocessor 9343279 cycles)"},
		{[]string{"-speedup", "-page", "8192"}, "speedup: 2.59 (ideal 14.17, uniprocessor 9343279 cycles)"},
		{[]string{"-speedup", "-requests", "dedicated"}, "speedup: 2.12 (ideal 9.40, uniprocessor 9343279 cycles)"},
	} {
		if out, stderr, code := runSvmsim(t, bin, tc.args...); code != 0 || !strings.Contains(out, tc.want+"\n") {
			t.Errorf("svmsim %v (exit %d, stderr %q):\n%s\nwant %q", tc.args, code, stderr, out, tc.want)
		}
	}

	traced, _, _ := runSvmsim(t, bin, "-app", "Barnes-reb", "-trace")
	withUni, _, code := runSvmsim(t, bin, "-app", "Barnes-reb", "-speedup", "-trace")
	var lines []string
	for _, line := range strings.SplitAfter(withUni, "\n") {
		if !strings.HasPrefix(line, "speedup: ") {
			lines = append(lines, line)
		}
	}
	if got := strings.Join(lines, ""); code != 0 || got != traced {
		t.Errorf("-speedup changed the trace of the parallel run (exit %d):\n%s\nwant:\n%s", code, withUni, traced)
	}
	if !strings.Contains(traced, "trace: 23389 events") {
		t.Errorf("svmsim -app Barnes-reb -trace:\n%s\nwant 23389 trace events", traced)
	}
}
