// Package sim exercises the mandatory-reason rule: an //svmlint:ignore
// without a justification is itself a finding, and the directive does not
// suppress the underlying one.
package sim

import "time"

func stamp() int64 {
	//svmlint:ignore wallclock
	return time.Now().UnixNano()
}
