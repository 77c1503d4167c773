// Package memsys models the node memory system of the simulated cluster:
// per-processor L1/L2 caches (tag-only timing models), the write buffer, and
// the split-transaction shared memory bus with the paper's arbitration
// priorities. Data itself always lives in the node memory image; the cache
// models only decide how many cycles an access costs and what bus traffic it
// generates.
package memsys

// Cache is a set-associative tag store with LRU replacement. It tracks no
// data, only presence and dirtiness of simulated address lines.
type Cache struct {
	sets      int
	assoc     int
	lineShift uint
	setMask   uint64
	// tags[set*assoc+way]; 0 means invalid, otherwise tag+1.
	tags  []uint64
	dirty []bool
	// lruTick[set*assoc+way]: larger = more recently used.
	lruTick []uint64
	tick    uint64
}

// NewCache builds a cache of sizeBytes with the given associativity and line
// size (powers of two).
func NewCache(sizeBytes, assoc, lineBytes int) *Cache {
	if sizeBytes <= 0 || assoc <= 0 || lineBytes <= 0 {
		panic("memsys: invalid cache geometry")
	}
	sets := sizeBytes / (assoc * lineBytes)
	if sets <= 0 || sets&(sets-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic("memsys: cache sets and line size must be powers of two")
	}
	shift := uint(0)
	for 1<<shift != lineBytes {
		shift++
	}
	return &Cache{
		sets:      sets,
		assoc:     assoc,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*assoc),
		dirty:     make([]bool, sets*assoc),
		lruTick:   make([]uint64, sets*assoc),
	}
}

// LineBytes returns the cache line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.LineBytes()) - 1)
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line & c.setMask), line >> 0
}

// Lookup reports whether addr's line is present, updating LRU state on hit.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == tag+1 {
			c.tick++
			c.lruTick[base+w] = c.tick
			return true
		}
	}
	return false
}

// Present reports whether addr's line is cached without touching LRU state.
func (c *Cache) Present(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == tag+1 {
			return true
		}
	}
	return false
}

// Insert brings addr's line into the cache, evicting the LRU way of its set.
// It returns the evicted line address and whether it was dirty; evictedValid
// is false when an invalid way was available.
func (c *Cache) Insert(addr uint64) (evicted uint64, evictedValid, evictedDirty bool) {
	set, tag := c.index(addr)
	base := set * c.assoc
	// Re-inserting a present line just refreshes its LRU position.
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == tag+1 {
			c.tick++
			c.lruTick[base+w] = c.tick
			return 0, false, false
		}
	}
	victim := base
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.tags[i] == 0 {
			victim = i
			break
		}
		if c.lruTick[i] < c.lruTick[victim] {
			victim = i
		}
	}
	if c.tags[victim] != 0 {
		oldTag := c.tags[victim] - 1
		// Reconstruct the line address: tag includes the set bits.
		evicted = oldTag << c.lineShift
		evictedValid = true
		evictedDirty = c.dirty[victim]
	}
	c.tick++
	c.tags[victim] = tag + 1
	c.dirty[victim] = false
	c.lruTick[victim] = c.tick
	return evicted, evictedValid, evictedDirty
}

// SetDirty marks addr's line dirty; it reports whether the line was present.
func (c *Cache) SetDirty(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == tag+1 {
			c.dirty[base+w] = true
			return true
		}
	}
	return false
}

// Invalidate removes addr's line; it reports whether the line was present
// and dirty.
func (c *Cache) Invalidate(addr uint64) (present, wasDirty bool) {
	set, tag := c.index(addr)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == tag+1 {
			present = true
			wasDirty = c.dirty[base+w]
			c.tags[base+w] = 0
			c.dirty[base+w] = false
			return present, wasDirty
		}
	}
	return false, false
}

// InvalidateRange removes every line intersecting [addr, addr+size). The
// range's lines map to consecutive sets, whose ways are one contiguous run of
// tags (two when the sets wrap past the last one), so it scans that run once
// and clears each way holding a line of the range. That leaves the state one
// Invalidate per line would: a line occupies at most one way, and
// invalidation leaves LRU ticks alone.
func (c *Cache) InvalidateRange(addr uint64, size int) {
	first := addr >> c.lineShift
	start := first << c.lineShift
	lines := (addr + uint64(size) - start + uint64(c.LineBytes()) - 1) >> c.lineShift
	from := int(first&c.setMask) * c.assoc
	to := from + int(min(lines, uint64(c.sets)))*c.assoc
	c.clearWays(from, min(to, len(c.tags)), first, lines)
	if to > len(c.tags) {
		c.clearWays(0, to-len(c.tags), first, lines)
	}
}

// clearWays invalidates the ways in [from, to) that hold one of the lines
// numbered [first, first+lines).
func (c *Cache) clearWays(from, to int, first, lines uint64) {
	tags, dirty := c.tags[from:to], c.dirty[from:to]
	for i, tag := range tags {
		if tag != 0 && tag-1-first < lines {
			tags[i] = 0
			dirty[i] = false
		}
	}
}
