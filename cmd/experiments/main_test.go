package main

import (
	"strings"
	"testing"

	"svmsim/internal/exp"
)

func TestSelectIDs(t *testing.T) {
	var ids []string
	for _, e := range exp.NewSuite(exp.Small).Experiments() {
		ids = append(ids, e.ID)
	}

	// An unknown ID is named, and the valid IDs are listed in suite order.
	_, err := selectIDs("fig99", ids)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) ||
		!strings.Contains(err.Error(), strings.Join(ids, ", ")) {
		t.Errorf("selectIDs(fig99) error = %v, want it to name fig99 and list %v", err, ids)
	}

	// One unknown ID rejects the whole list, whatever valid IDs ride along.
	if want, err := selectIDs("fig10, nodecrash,bogus", ids); err == nil || want != nil ||
		!strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("selectIDs(mixed) = %v, %v; want an error naming bogus", want, err)
	}

	// An empty list selects everything.
	if want, err := selectIDs("", ids); err != nil || want != nil {
		t.Errorf("selectIDs(\"\") = %v, %v; want nil, nil (run all)", want, err)
	}

	// Valid IDs, with the spaces a shell user types, select exactly themselves.
	want, err := selectIDs("fig10, nodecrash", ids)
	if err != nil || len(want) != 2 || !want["fig10"] || !want["nodecrash"] {
		t.Errorf("selectIDs(valid) = %v, %v; want {fig10, nodecrash}", want, err)
	}
}
