// Package model exercises parkdiscipline: a package that does not depend on
// the root svmsim package is simulator code, and its sync import must be
// flagged. sync/atomic stays allowed.
package model

import (
	"sync"
	"sync/atomic"
)

// Cache mirrors a simulator structure that reached for a lock.
type Cache struct {
	mu   sync.Mutex
	hits atomic.Int64
}

// touch counts a hit under the lock.
func (c *Cache) touch() {
	c.mu.Lock()
	c.hits.Add(1)
	c.mu.Unlock()
}
