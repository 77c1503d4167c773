// Package model exercises parkdiscipline: engine blocking calls reached,
// directly or through a helper, while a harness mutex is held must be
// flagged.
package model

import (
	"sync"

	"svmsim/internal/lint/testdata/src/engine"
)

// Suite mirrors the harness shape: a memo lock next to a simulator handle.
type Suite struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	sim *engine.Sim
}

// runLocked blocks directly: the deferred Unlock holds mu across Run.
func (s *Suite) runLocked() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sim.Run()
}

// readLocked parks under a read lock, transitively through a helper.
func (s *Suite) readLocked(t *engine.Thread) {
	s.rw.RLock()
	parkThread(t)
	s.rw.RUnlock()
}

func parkThread(t *engine.Thread) {
	t.Park()
}

// transferLocked runs a bus transaction under the lock.
func (s *Suite) transferLocked(t *engine.Thread) {
	s.mu.Lock()
	t.Do(engine.Op{Cycles: 8})
	s.mu.Unlock()
}
