// Package model pins the parkdiscipline suppression path: a reasoned
// //svmlint:ignore moves the finding to the suppressed list.
package model

import (
	//svmlint:ignore parkdiscipline fixture; the once guards a table built before any simulation starts
	"sync"
)

var (
	once  sync.Once
	table []int
)

// lookup builds the table on first use.
func lookup(i int) int {
	once.Do(func() { table = []int{1, 2, 3} })
	return table[i]
}
