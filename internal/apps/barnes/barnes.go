// Package barnes implements the two Barnes-Hut variants the paper studies:
//
//   - Rebuild (the SPLASH-2 original): every processor inserts its particles
//     directly into the shared octree, locking cells as it descends — the
//     paper's canonical fine-grained-locking workload with heavy remote lock
//     traffic and page faults inside critical sections.
//   - Space (the SVM-optimized version): the spatial domain is split into
//     disjoint subspaces, each processor builds the subtree of its subspaces
//     in its own region of the cell pool without any locking, and the
//     subtrees are linked into a fixed skeleton.
//
// Both share the center-of-mass, force-calculation and integration phases.
package barnes

import (
	"fmt"
	"math"

	"svmsim/internal/apps/appkit"
	"svmsim/internal/machine"
	"svmsim/internal/shm"
)

// Variant selects the tree-building algorithm.
type Variant int

const (
	// Rebuild inserts into a shared tree under per-cell locks.
	Rebuild Variant = iota
	// Space builds per-subspace subtrees without locks.
	Space
)

// Params sizes the problem.
type Params struct {
	Variant     Variant
	N           int
	Steps       int
	Theta       float64
	Dt          float64
	Box         float64
	VisitCycles uint64 // per tree node visited
	PairCycles  uint64 // per particle-particle/cell interaction
}

// SmallRebuild returns a test-sized locking problem.
func SmallRebuild() Params {
	return Params{Variant: Rebuild, N: 256, Steps: 2, Theta: 0.6, Dt: 0.02, Box: 16, VisitCycles: 60, PairCycles: 350}
}

// DefaultRebuild returns the benchmark-sized locking problem.
func DefaultRebuild() Params {
	p := SmallRebuild()
	p.N = 1024
	return p
}

// SmallSpace returns a test-sized lock-free problem.
func SmallSpace() Params {
	p := SmallRebuild()
	p.Variant = Space
	return p
}

// DefaultSpace returns the benchmark-sized lock-free problem.
func DefaultSpace() Params {
	p := DefaultRebuild()
	p.Variant = Space
	return p
}

// Particle layout (words).
const (
	pM  = 0
	pX  = 1 // x,y,z
	pVX = 4 // vx,vy,vz
	pAX = 7 // ax,ay,az
	// padded to 16 words
	partWords = 16
)

// Cell layout (words): children[0..7] (0 empty, k>0 cell k-1, k<0 particle
// -k-1), mass, cx, cy, cz; padded to 16.
const (
	cChild    = 0
	cMass     = 8
	cX        = 9
	cellWords = 16
)

const maxDepth = 48

type state struct {
	p Params

	part  appkit.Vec
	cells appkit.Vec
	pool  appkit.Vec // [0] shared next-free-cell counter (rebuild)

	poolLock  int
	cellLocks []int

	poolCells int
	// Space variant: decomposition depth and skeleton size.
	depth    int
	skeleton int

	// init positions (private, deterministic) and step-0 accelerations per
	// particle, recorded by the app for validation.
	initPos [][3]float64
	a0      [][3]float64
}

// New builds the application.
func New(p Params) machine.App {
	name := "Barnes-rebuild"
	if p.Variant == Space {
		name = "Barnes-space"
	}
	return machine.App{
		Name:  name,
		Setup: func(w *shm.World) any { return setup(w, p) },
		Body:  body,
		Check: check,
	}
}

func setup(w *shm.World, p Params) *state {
	s := &state{p: p}
	s.poolCells = 8 * p.N
	s.part = appkit.AllocVecPages(w, p.N*partWords)
	appkit.BlockHome(w, s.part, p.N*partWords)
	s.cells = appkit.AllocVecPages(w, s.poolCells*cellWords)
	s.pool = appkit.AllocVecPages(w, 8)
	if p.Variant == Rebuild {
		s.poolLock = w.NewLock()
		s.cellLocks = w.NewLocks(128)
	} else {
		s.depth = 1
		for pow := 8; pow < w.Procs(); pow *= 8 {
			s.depth++
		}
		// Skeleton: complete octree of s.depth levels (cells 0..skeleton-1).
		s.skeleton = 0
		for l, c := 0, 1; l < s.depth; l++ {
			s.skeleton += c
			c *= 8
		}
	}
	// Deterministic clustered initial conditions: two Plummer-ish blobs.
	s.initPos = make([][3]float64, p.N)
	x := uint64(0x51a3d70b97f4a7c5)
	rnd := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%1000000) / 1000000
	}
	for i := range s.initPos {
		cx, cy, cz := 0.3*p.Box, 0.5*p.Box, 0.5*p.Box
		if i%2 == 1 {
			cx = 0.7 * p.Box
		}
		r := 0.15 * p.Box * math.Pow(rnd(), 0.7)
		th := math.Acos(2*rnd() - 1)
		ph := 2 * math.Pi * rnd()
		s.initPos[i] = [3]float64{
			cx + r*math.Sin(th)*math.Cos(ph),
			cy + r*math.Sin(th)*math.Sin(ph),
			cz + r*math.Cos(th),
		}
	}
	s.a0 = make([][3]float64, p.N)
	return s
}

func (s *state) pAddr(i, f int) int { return i*partWords + f }
func (s *state) cAddr(c, f int) int { return c*cellWords + f }

// clearCell zeroes a cell's children and mass.
func (s *state) clearCell(c *shm.Proc, ci int) {
	for f := 0; f < 8; f++ {
		s.cells.SetI(c, s.cAddr(ci, cChild+f), 0)
	}
	s.cells.SetF(c, s.cAddr(ci, cMass), 0)
}

// octant returns the child slot of point (x,y,z) in a cell centered at
// (ox,oy,oz).
func octant(x, y, z, ox, oy, oz float64) int {
	o := 0
	if x >= ox {
		o |= 1
	}
	if y >= oy {
		o |= 2
	}
	if z >= oz {
		o |= 4
	}
	return o
}

// childCenter moves a cell center into child octant o.
func childCenter(ox, oy, oz, half float64, o int) (float64, float64, float64) {
	q := half / 2
	if o&1 != 0 {
		ox += q
	} else {
		ox -= q
	}
	if o&2 != 0 {
		oy += q
	} else {
		oy -= q
	}
	if o&4 != 0 {
		oz += q
	} else {
		oz -= q
	}
	return ox, oy, oz
}

func body(c *shm.Proc, st any) {
	s := st.(*state)
	lo, hi := c.Block(s.p.N)
	// Parallel init of owned particles.
	for i := lo; i < hi; i++ {
		s.part.SetF(c, s.pAddr(i, pM), 1.0/float64(s.p.N))
		for d := 0; d < 3; d++ {
			s.part.SetF(c, s.pAddr(i, pX+d), s.initPos[i][d])
			s.part.SetF(c, s.pAddr(i, pVX+d), 0)
			s.part.SetF(c, s.pAddr(i, pAX+d), 0)
		}
	}
	c.Barrier()

	for step := 0; step < s.p.Steps; step++ {
		if s.p.Variant == Rebuild {
			s.buildRebuild(c, lo, hi)
		} else {
			s.buildSpace(c)
		}
		s.centerOfMass(c)
		s.forces(c, lo, hi, step)
		s.integrate(c, lo, hi)
		c.Barrier()
	}
}

// --- tree building: rebuild (shared tree, per-cell locks) ---

func (s *state) lockFor(ci int) int { return s.cellLocks[ci%len(s.cellLocks)] }

// allocCell grabs a fresh cell from the shared pool.
func (s *state) allocCell(c *shm.Proc) int {
	c.Lock(s.poolLock)
	ci := int(s.pool.GetI(c, 0))
	s.pool.SetI(c, 0, int64(ci+1))
	c.Unlock(s.poolLock)
	if ci >= s.poolCells {
		panic("barnes: cell pool exhausted")
	}
	s.clearCell(c, ci)
	return ci
}

func (s *state) buildRebuild(c *shm.Proc, lo, hi int) {
	// Processor 0 resets the pool and the root.
	if c.ID == 0 {
		s.pool.SetI(c, 0, 1) // cell 0 = root
		s.clearCell(c, 0)
	}
	c.Barrier()
	half := s.p.Box / 2
	for i := lo; i < hi; i++ {
		x := s.part.GetF(c, s.pAddr(i, pX))
		y := s.part.GetF(c, s.pAddr(i, pX+1))
		z := s.part.GetF(c, s.pAddr(i, pX+2))
		s.insert(c, i, x, y, z, half)
	}
	c.Barrier()
}

// insert adds particle i at (x,y,z) to the shared tree with cell locking.
func (s *state) insert(c *shm.Proc, i int, x, y, z, rootHalf float64) {
	cur := 0
	ox, oy, oz := s.p.Box/2, s.p.Box/2, s.p.Box/2
	half := rootHalf
	for depth := 0; depth < maxDepth; depth++ {
		o := octant(x, y, z, ox, oy, oz)
		lk := s.lockFor(cur)
		c.Lock(lk)
		ch := s.cells.GetI(c, s.cAddr(cur, cChild+o))
		if depth == maxDepth-1 {
			panic(fmt.Sprintf("barnes: insert depth blowup: proc=%d i=%d cur=%d ch=%d half=%g",
				c.ID, i, cur, ch, half))
		}
		switch {
		case ch == 0:
			// Empty slot: place the particle.
			s.cells.SetI(c, s.cAddr(cur, cChild+o), int64(-(i + 1)))
			c.Unlock(lk)
			return
		case ch < 0:
			// Slot holds a particle: split it into a new cell.
			q := int(-ch - 1)
			nc := s.allocCellLocked(c, lk)
			qx := s.part.GetF(c, s.pAddr(q, pX))
			qy := s.part.GetF(c, s.pAddr(q, pX+1))
			qz := s.part.GetF(c, s.pAddr(q, pX+2))
			nx, ny, nz := childCenter(ox, oy, oz, half, o)
			qo := octant(qx, qy, qz, nx, ny, nz)
			s.cells.SetI(c, s.cAddr(nc, cChild+qo), int64(-(q + 1)))
			s.cells.SetI(c, s.cAddr(cur, cChild+o), int64(nc+1))
			c.Unlock(lk)
			cur = nc
			ox, oy, oz = nx, ny, nz
			half /= 2
		default:
			c.Unlock(lk)
			cur = int(ch - 1)
			ox, oy, oz = childCenter(ox, oy, oz, half, o)
			half /= 2
		}
	}
	panic("barnes: insert exceeded max depth (coincident particles?)")
}

// allocCellLocked allocates a cell while the caller holds a cell lock. The
// pool lock is ordered after cell locks (always acquired while holding at
// most one cell lock, and pool-lock holders take no cell locks), so this
// cannot deadlock.
func (s *state) allocCellLocked(c *shm.Proc, _ int) int {
	return s.allocCell(c)
}

// --- tree building: space (lock-free subspace subtrees) ---

// subspaceOf returns the depth-d subspace index of a point.
func (s *state) subspaceOf(x, y, z float64) int {
	ox, oy, oz := s.p.Box/2, s.p.Box/2, s.p.Box/2
	half := s.p.Box / 2
	idx := 0
	for l := 0; l < s.depth; l++ {
		o := octant(x, y, z, ox, oy, oz)
		idx = idx*8 + o
		ox, oy, oz = childCenter(ox, oy, oz, half, o)
		half /= 2
	}
	return idx
}

// skeletonCellOf returns the skeleton cell holding the slot for subspace ss,
// plus the child slot index.
func (s *state) skeletonCellOf(ss int) (cell, slot int) {
	// Skeleton levels: level 0 = cell 0 (root), level l starts at
	// (8^l - 1) / 7. The parent of subspace ss sits at level depth-1.
	levelStart := 0
	for l, c := 0, 1; l < s.depth-1; l++ {
		levelStart += c
		c *= 8
	}
	return levelStart + ss/8, ss % 8
}

func (s *state) buildSpace(c *shm.Proc) {
	nss := 1
	for l := 0; l < s.depth; l++ {
		nss *= 8
	}
	// Clear the skeleton (proc 0) and link fixed skeleton children.
	if c.ID == 0 {
		for ci := 0; ci < s.skeleton; ci++ {
			s.clearCell(c, ci)
		}
		// Link: every skeleton cell at level < depth-1 points at its 8
		// child skeleton cells.
		next := 1
		start, count := 0, 1
		for l := 0; l < s.depth-1; l++ {
			for k := 0; k < count; k++ {
				ci := start + k
				for o := 0; o < 8; o++ {
					s.cells.SetI(c, s.cAddr(ci, cChild+o), int64(next+1))
					next++
				}
			}
			start += count
			count *= 8
		}
	}
	c.Barrier()

	// Each processor owns subspaces ss with ss % N == ID and builds their
	// subtrees in its own pool chunk (single-writer, no locks).
	chunk := (s.poolCells - s.skeleton) / c.N
	next := s.skeleton + c.ID*chunk
	limit := next + chunk
	half := s.p.Box / 2
	for l := 0; l < s.depth; l++ {
		half /= 2
	}
	// Scan all particles, selecting those in owned subspaces.
	for i := 0; i < s.p.N; i++ {
		x := s.part.GetF(c, s.pAddr(i, pX))
		y := s.part.GetF(c, s.pAddr(i, pX+1))
		z := s.part.GetF(c, s.pAddr(i, pX+2))
		ss := s.subspaceOf(x, y, z)
		if ss%c.N != c.ID {
			continue
		}
		skCell, slot := s.skeletonCellOf(ss)
		// Subspace geometry.
		ox, oy, oz := s.subspaceCenter(ss)
		// Insert lock-free into the subtree hanging off (skCell, slot).
		next = s.insertPrivate(c, i, x, y, z, skCell, cChild+slot, ox, oy, oz, half, next, limit)
	}
	c.Barrier()
}

// subspaceCenter returns the center of depth-d subspace ss.
func (s *state) subspaceCenter(ss int) (float64, float64, float64) {
	// Decode the octant path from most-significant digit.
	digits := make([]int, s.depth)
	for l := s.depth - 1; l >= 0; l-- {
		digits[l] = ss % 8
		ss /= 8
	}
	ox, oy, oz := s.p.Box/2, s.p.Box/2, s.p.Box/2
	half := s.p.Box / 2
	for _, o := range digits {
		ox, oy, oz = childCenter(ox, oy, oz, half, o)
		half /= 2
	}
	return ox, oy, oz
}

// insertPrivate inserts into a single-owner subtree, allocating cells from
// [next, limit). It returns the updated allocation cursor.
func (s *state) insertPrivate(c *shm.Proc, i int, x, y, z float64, holder, hslot int, ox, oy, oz, half float64, next, limit int) int {
	for depth := 0; depth < maxDepth; depth++ {
		ch := s.cells.GetI(c, s.cAddr(holder, hslot))
		switch {
		case ch == 0:
			s.cells.SetI(c, s.cAddr(holder, hslot), int64(-(i + 1)))
			return next
		case ch < 0:
			q := int(-ch - 1)
			if next >= limit {
				panic("barnes: space pool chunk exhausted")
			}
			nc := next
			next++
			s.clearCell(c, nc)
			qx := s.part.GetF(c, s.pAddr(q, pX))
			qy := s.part.GetF(c, s.pAddr(q, pX+1))
			qz := s.part.GetF(c, s.pAddr(q, pX+2))
			qo := octant(qx, qy, qz, ox, oy, oz)
			s.cells.SetI(c, s.cAddr(nc, cChild+qo), int64(-(q + 1)))
			s.cells.SetI(c, s.cAddr(holder, hslot), int64(nc+1))
			holder, hslot = nc, cChild+octant(x, y, z, ox, oy, oz)
			ox, oy, oz = childCenter(ox, oy, oz, half, octant(x, y, z, ox, oy, oz))
			half /= 2
		default:
			cell := int(ch - 1)
			o := octant(x, y, z, ox, oy, oz)
			holder, hslot = cell, cChild+o
			ox, oy, oz = childCenter(ox, oy, oz, half, o)
			half /= 2
		}
	}
	panic("barnes: insertPrivate exceeded max depth")
}

// --- center of mass ---

// centerOfMass computes masses and centers bottom-up. Root children (or
// skeleton slots) are processed round-robin by processor; processor 0
// finishes the top levels.
func (s *state) centerOfMass(c *shm.Proc) {
	for o := 0; o < 8; o++ {
		owner := o % c.N
		if owner > 7 {
			owner = o
		}
		if owner != c.ID {
			continue
		}
		ch := s.cells.GetI(c, s.cAddr(0, cChild+o))
		if ch > 0 {
			s.comRecurse(c, int(ch-1))
		}
	}
	c.Barrier()
	if c.ID == 0 {
		s.comCell(c, 0)
	}
	c.Barrier()
}

// comRecurse computes COM for the subtree rooted at cell ci (post-order).
func (s *state) comRecurse(c *shm.Proc, ci int) {
	for o := 0; o < 8; o++ {
		ch := s.cells.GetI(c, s.cAddr(ci, cChild+o))
		if ch > 0 {
			s.comRecurse(c, int(ch-1))
		}
	}
	s.comCell(c, ci)
}

// comCell folds children into cell ci's mass and center (children's COMs
// must already be final). For the root this recurses into stale skeleton
// cells too, so it re-resolves one level deep when needed.
func (s *state) comCell(c *shm.Proc, ci int) {
	var m, mx, my, mz float64
	for o := 0; o < 8; o++ {
		ch := s.cells.GetI(c, s.cAddr(ci, cChild+o))
		switch {
		case ch == 0:
		case ch < 0:
			q := int(-ch - 1)
			qm := s.part.GetF(c, s.pAddr(q, pM))
			m += qm
			mx += qm * s.part.GetF(c, s.pAddr(q, pX))
			my += qm * s.part.GetF(c, s.pAddr(q, pX+1))
			mz += qm * s.part.GetF(c, s.pAddr(q, pX+2))
		default:
			cc := int(ch - 1)
			cm := s.cells.GetF(c, s.cAddr(cc, cMass))
			if cm == 0 && s.hasChildren(c, cc) {
				// Skeleton cell not yet folded (space variant top levels).
				s.comCell(c, cc)
				cm = s.cells.GetF(c, s.cAddr(cc, cMass))
			}
			m += cm
			mx += cm * s.cells.GetF(c, s.cAddr(cc, cX))
			my += cm * s.cells.GetF(c, s.cAddr(cc, cX+1))
			mz += cm * s.cells.GetF(c, s.cAddr(cc, cX+2))
		}
	}
	s.cells.SetF(c, s.cAddr(ci, cMass), m)
	if m > 0 {
		s.cells.SetF(c, s.cAddr(ci, cX), mx/m)
		s.cells.SetF(c, s.cAddr(ci, cX+1), my/m)
		s.cells.SetF(c, s.cAddr(ci, cX+2), mz/m)
	}
	c.Compute(16 * s.p.VisitCycles)
}

func (s *state) hasChildren(c *shm.Proc, ci int) bool {
	for o := 0; o < 8; o++ {
		if s.cells.GetI(c, s.cAddr(ci, cChild+o)) != 0 {
			return true
		}
	}
	return false
}

// --- forces ---

const soften2 = 0.05

// accel computes the acceleration contribution on (x,y,z) from mass m at
// (qx,qy,qz).
func accel(x, y, z, qx, qy, qz, m float64) (ax, ay, az float64) {
	dx, dy, dz := qx-x, qy-y, qz-z
	r2 := dx*dx + dy*dy + dz*dz + soften2
	inv := 1 / (r2 * math.Sqrt(r2))
	return m * dx * inv, m * dy * inv, m * dz * inv
}

func (s *state) forces(c *shm.Proc, lo, hi, step int) {
	theta2 := s.p.Theta * s.p.Theta
	for i := lo; i < hi; i++ {
		x := s.part.GetF(c, s.pAddr(i, pX))
		y := s.part.GetF(c, s.pAddr(i, pX+1))
		z := s.part.GetF(c, s.pAddr(i, pX+2))
		var ax, ay, az float64
		var walk func(ci int, half float64)
		walk = func(ci int, half float64) {
			c.Compute(s.p.VisitCycles)
			for o := 0; o < 8; o++ {
				ch := s.cells.GetI(c, s.cAddr(ci, cChild+o))
				switch {
				case ch == 0:
				case ch < 0:
					q := int(-ch - 1)
					if q == i {
						continue
					}
					gx, gy, gz := accel(x, y, z,
						s.part.GetF(c, s.pAddr(q, pX)),
						s.part.GetF(c, s.pAddr(q, pX+1)),
						s.part.GetF(c, s.pAddr(q, pX+2)),
						s.part.GetF(c, s.pAddr(q, pM)))
					ax += gx
					ay += gy
					az += gz
					c.Compute(s.p.PairCycles)
				default:
					cc := int(ch - 1)
					cm := s.cells.GetF(c, s.cAddr(cc, cMass))
					if cm == 0 {
						continue
					}
					cx := s.cells.GetF(c, s.cAddr(cc, cX))
					cy := s.cells.GetF(c, s.cAddr(cc, cX+1))
					cz := s.cells.GetF(c, s.cAddr(cc, cX+2))
					dx, dy, dz := cx-x, cy-y, cz-z
					dist2 := dx*dx + dy*dy + dz*dz
					size := half // child cell size = half the parent extent
					if size*size < theta2*dist2 {
						gx, gy, gz := accel(x, y, z, cx, cy, cz, cm)
						ax += gx
						ay += gy
						az += gz
						c.Compute(s.p.PairCycles)
					} else {
						walk(cc, half/2)
					}
				}
			}
		}
		walk(0, s.p.Box/2)
		for d, v := range [3]float64{ax, ay, az} {
			s.part.SetF(c, s.pAddr(i, pAX+d), v)
		}
		if step == 0 {
			s.a0[i] = [3]float64{ax, ay, az}
		}
	}
	c.Barrier()
}

// --- integration ---

func (s *state) integrate(c *shm.Proc, lo, hi int) {
	for i := lo; i < hi; i++ {
		for d := 0; d < 3; d++ {
			v := s.part.GetF(c, s.pAddr(i, pVX+d)) + s.p.Dt*s.part.GetF(c, s.pAddr(i, pAX+d))
			x := s.part.GetF(c, s.pAddr(i, pX+d)) + s.p.Dt*v
			if x < 0.01*s.p.Box {
				x = 0.02*s.p.Box - x
				v = -v
			}
			if x > 0.99*s.p.Box {
				x = 1.98*s.p.Box - x
				v = -v
			}
			// A violent kick can overshoot the reflection; clamp hard so
			// particles never escape the root cell (an escaped pair would
			// recurse forever during insertion).
			if x < 0.011*s.p.Box {
				x = 0.011 * s.p.Box
			}
			if x > 0.989*s.p.Box {
				x = 0.989 * s.p.Box
			}
			s.part.SetF(c, s.pAddr(i, pVX+d), v)
			s.part.SetF(c, s.pAddr(i, pX+d), x)
		}
		c.Compute(12 * s.p.PairCycles)
	}
	c.Barrier()
}

// check compares the tree-computed step-0 accelerations against a direct
// O(n^2) sum over the initial conditions.
func check(w *shm.World, st any) error {
	s := st.(*state)
	n := s.p.N
	mass := 1.0 / float64(n)
	refs := make([][3]float64, n)
	var avgNorm float64
	for i := 0; i < n; i++ {
		var ax, ay, az float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			gx, gy, gz := accel(
				s.initPos[i][0], s.initPos[i][1], s.initPos[i][2],
				s.initPos[j][0], s.initPos[j][1], s.initPos[j][2], mass)
			ax += gx
			ay += gy
			az += gz
		}
		refs[i] = [3]float64{ax, ay, az}
		avgNorm += math.Sqrt(ax*ax + ay*ay + az*az)
	}
	avgNorm /= float64(n)
	// Normalize against |ref| plus a fraction of the mean magnitude:
	// particles near the force-balance point between the two blobs have
	// near-zero reference forces, which would explode a pure relative
	// error even for a perfectly healthy tree.
	var worst float64
	for i := 0; i < n; i++ {
		dx := s.a0[i][0] - refs[i][0]
		dy := s.a0[i][1] - refs[i][1]
		dz := s.a0[i][2] - refs[i][2]
		errNorm := math.Sqrt(dx*dx + dy*dy + dz*dz)
		refNorm := math.Sqrt(refs[i][0]*refs[i][0] + refs[i][1]*refs[i][1] + refs[i][2]*refs[i][2])
		rel := errNorm / (refNorm + 0.3*avgNorm)
		if rel > worst {
			worst = rel
		}
		if math.IsNaN(rel) {
			return fmt.Errorf("barnes: NaN acceleration for particle %d", i)
		}
	}
	if worst > 0.3 {
		return fmt.Errorf("barnes: worst normalized force error %.3f exceeds tolerance (tree corrupt?)", worst)
	}
	return nil
}
