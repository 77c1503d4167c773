package exp

import (
	"strings"
	"testing"

	"svmsim"
)

// TestParseSize: the commands' -size values are small and default in any
// letter case; anything else, "paper" included, is an error naming both.
func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Size
		ok   bool
	}{
		{"small", Small, true},
		{"SMALL", Small, true},
		{"default", Default, true},
		{"Default", Default, true},
		{"paper", 0, false},
		{"", 0, false},
		{"smal", 0, false},
		{" default", 0, false},
	} {
		got, err := ParseSize(tc.in)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "small, default") {
				t.Errorf("ParseSize(%q) = %v, %v; want an error naming small and default", tc.in, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		var flagged Size
		if err := flagged.Set(got.String()); err != nil || flagged != got {
			t.Errorf("Set(%q) = %v, %v; want %v", got.String(), flagged, err, got)
		}
	}
}

// TestDefaultSizesRunAndValidate runs every workload once at its
// benchmark (Default) problem size on the achievable configuration,
// exercising the sizes the benchmark harness uses. Skipped with -short.
func TestDefaultSizesRunAndValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("default problem sizes are slow; run without -short")
	}
	for _, w := range svmsim.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := svmsim.Run(svmsim.Achievable(), w.Default())
			if err != nil {
				t.Fatal(err)
			}
			if res.Run.Cycles == 0 {
				t.Fatal("no cycles")
			}
		})
	}
}
