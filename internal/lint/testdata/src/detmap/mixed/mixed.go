// Package proto breaks two invariants at once, for the driver's analyzer
// selection tests: it drains a map in iteration order (detmap) and stamps
// the batch with the host clock (wallclock).
package proto

import "time"

// drain returns the pending names in map order and the host time of the
// drain.
func drain(pending map[int]string) ([]string, int64) {
	var out []string
	for _, v := range pending {
		out = append(out, v)
	}
	return out, time.Now().UnixNano()
}
