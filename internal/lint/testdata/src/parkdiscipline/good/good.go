// Package harness exercises parkdiscipline's allowed shape: a package that
// depends on the root svmsim package is harness code and may take a lock
// around the simulations it runs.
package harness

import (
	"sync"

	"svmsim"
)

// Memo mirrors the harness shape: a lock around finished runs, taken
// outside any simulation.
type Memo struct {
	mu   sync.Mutex
	runs map[string]*svmsim.RunStats
}

// get reads one memoized run.
func (m *Memo) get(key string) *svmsim.RunStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs[key]
}
