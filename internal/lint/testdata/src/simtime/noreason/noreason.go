// Package cost exercises the mandatory-reason rule: an //svmlint:ignore
// without a justification is itself a finding, and the directive does not
// suppress the underlying one.
package cost

import "svmsim/internal/lint/testdata/src/engine"

func pack(budgetCycles, ctlBytes engine.Time) engine.Time {
	//svmlint:ignore simtime
	return budgetCycles + ctlBytes
}
