package proto_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"svmsim/internal/machine"
	"svmsim/internal/proto"
	"svmsim/internal/shm"
	"svmsim/internal/stats"
)

// cfg4x4 is a small but fully-featured cluster: 8 procs on 4 nodes.
func cfg4x4() machine.Config {
	c := machine.Achievable()
	c.Procs = 8
	c.ProcsPerNode = 2
	c.HeapBytes = 1 << 20
	return c
}

func run(t *testing.T, cfg machine.Config, app machine.App) *machine.Result {
	t.Helper()
	res, err := machine.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSingleWriterVisibility: one processor writes, a barrier intervenes,
// everyone reads the values through the protocol.
func TestSingleWriterVisibility(t *testing.T) {
	for _, mode := range []proto.Mode{proto.HLRC, proto.AURC} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := cfg4x4()
			cfg.Proto.Mode = mode
			const n = 1024
			bad := 0
			app := machine.App{
				Name: "single-writer",
				Setup: func(w *shm.World) any {
					return w.AllocPages(n * 8)
				},
				Body: func(c *shm.Proc, state any) {
					base := state.(shm.Addr)
					if c.ID == 0 {
						for i := 0; i < n; i++ {
							c.WriteU64(base+shm.Addr(i*8), uint64(i)*3+7)
						}
					}
					c.Barrier()
					for i := 0; i < n; i++ {
						if c.ReadU64(base+shm.Addr(i*8)) != uint64(i)*3+7 {
							bad++
						}
					}
					c.Barrier()
				},
			}
			run(t, cfg, app)
			if bad != 0 {
				t.Fatalf("%d stale reads", bad)
			}
		})
	}
}

// TestPageCopiesAtImageEnd: the last allocated page holds only one word
// and ends every node's memory image. Serving, installing, twinning and
// diffing that page all copy it whole, so the image must cover all of it.
func TestPageCopiesAtImageEnd(t *testing.T) {
	for _, mode := range []proto.Mode{proto.HLRC, proto.AURC} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := machine.Achievable()
			cfg.Procs = 2
			cfg.ProcsPerNode = 1
			cfg.HeapBytes = 1 << 20
			cfg.Proto.Mode = mode
			var got, back uint64
			app := machine.App{
				Name: "image-end",
				Setup: func(w *shm.World) any {
					size := uint64(w.PageBytes()) + 8
					base := w.AllocPages(size)
					w.SetHome(base, size, 1)
					return base + shm.Addr(w.PageBytes()) // the last word
				},
				Body: func(c *shm.Proc, state any) {
					last := state.(shm.Addr)
					if c.ID == 1 {
						c.WriteU64(last, 0xfeed) // at the home
					}
					c.Barrier()
					if c.ID == 0 {
						got = c.ReadU64(last)    // fetch: serve and install
						c.WriteU64(last, 0xbeef) // twin, then diff or update
					}
					c.Barrier()
					if c.ID == 1 {
						back = c.ReadU64(last)
					}
				},
			}
			res := run(t, cfg, app)
			if got != 0xfeed || back != 0xbeef {
				t.Fatalf("node 0 read %#x (want 0xfeed), home read back %#x (want 0xbeef)", got, back)
			}
			end := 2 * cfg.Proto.PageBytes
			for _, nd := range res.World.Sys.Nodes {
				if len(nd.Mem) != end {
					t.Fatalf("node %d image holds %d bytes, want %d", nd.ID, len(nd.Mem), end)
				}
			}
		})
	}
}

// TestLockCounter: the classic coherence test — every processor increments a
// shared counter under a lock; the final value must be exact.
func TestLockCounter(t *testing.T) {
	for _, mode := range []proto.Mode{proto.HLRC, proto.AURC} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := cfg4x4()
			cfg.Proto.Mode = mode
			const per = 25
			type st struct {
				addr shm.Addr
				lock int
			}
			app := machine.App{
				Name: "lock-counter",
				Setup: func(w *shm.World) any {
					return st{addr: w.AllocPages(8), lock: w.NewLock()}
				},
				Body: func(c *shm.Proc, state any) {
					s := state.(st)
					for i := 0; i < per; i++ {
						c.Lock(s.lock)
						v := c.ReadU64(s.addr)
						c.WriteU64(s.addr, v+1)
						c.Unlock(s.lock)
					}
					c.Barrier()
				},
				Check: func(w *shm.World, state any) error {
					s := state.(st)
					// Read the value from the page's home image.
					home := w.Sys.Home(w.Sys.PageOf(s.addr))
					got := w.Sys.Nodes[home].ReadWord(s.addr)
					want := uint64(per * w.Procs())
					if got != want {
						return fmt.Errorf("counter=%d want %d", got, want)
					}
					return nil
				},
			}
			run(t, cfg, app)
		})
	}
}

// TestFalseSharingMultipleWriters: every processor writes its own word of
// ONE page under its own lock (concurrent multiple writers), then all values
// must survive — the diff/update merge at the home must not lose writes.
func TestFalseSharingMultipleWriters(t *testing.T) {
	for _, mode := range []proto.Mode{proto.HLRC, proto.AURC} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := cfg4x4()
			cfg.Proto.Mode = mode
			type st struct {
				base  shm.Addr
				locks []int
			}
			const rounds = 8
			app := machine.App{
				Name: "false-sharing",
				Setup: func(w *shm.World) any {
					return st{base: w.AllocPages(uint64(w.Procs() * 8)), locks: w.NewLocks(w.Procs())}
				},
				Body: func(c *shm.Proc, state any) {
					s := state.(st)
					a := s.base + shm.Addr(c.ID*8)
					for r := 0; r < rounds; r++ {
						c.Lock(s.locks[c.ID])
						v := c.ReadU64(a)
						c.WriteU64(a, v+uint64(c.ID+1))
						c.Unlock(s.locks[c.ID])
					}
					c.Barrier()
					if got := c.ReadU64(a); got != uint64(rounds*(c.ID+1)) {
						panic(fmt.Sprintf("proc %d sees %d want %d", c.ID, got, rounds*(c.ID+1)))
					}
					c.Barrier()
				},
			}
			run(t, cfg, app)
		})
	}
}

// TestMigratoryData: a value chases around all processors through one lock;
// each adds its ID. Exercises token forwarding and notice chains.
func TestMigratoryData(t *testing.T) {
	cfg := cfg4x4()
	type st struct {
		addr shm.Addr
		lock int
	}
	const rounds = 6
	app := machine.App{
		Name: "migratory",
		Setup: func(w *shm.World) any {
			return st{addr: w.AllocPages(8), lock: w.NewLock()}
		},
		Body: func(c *shm.Proc, state any) {
			s := state.(st)
			for r := 0; r < rounds; r++ {
				c.Lock(s.lock)
				c.WriteU64(s.addr, c.ReadU64(s.addr)+uint64(c.ID))
				c.Unlock(s.lock)
				c.Compute(uint64(100 * (c.ID + 1)))
			}
			c.Barrier()
		},
		Check: func(w *shm.World, state any) error {
			s := state.(st)
			home := w.Sys.Home(w.Sys.PageOf(s.addr))
			got := w.Sys.Nodes[home].ReadWord(s.addr)
			want := uint64(rounds * (w.Procs() - 1) * w.Procs() / 2)
			if got != want {
				return fmt.Errorf("sum=%d want %d", got, want)
			}
			return nil
		},
	}
	run(t, cfg, app)
}

// TestBarrierPhases: neighbor-exchange across barriers; each phase reads the
// previous phase's remote writes.
func TestBarrierPhases(t *testing.T) {
	cfg := cfg4x4()
	const phases = 5
	bad := 0
	app := machine.App{
		Name: "phases",
		Setup: func(w *shm.World) any {
			return w.AllocPages(uint64(w.Procs()) * uint64(w.PageBytes()))
		},
		Body: func(c *shm.Proc, state any) {
			base := state.(shm.Addr)
			mine := base + shm.Addr(c.ID*c.W.PageBytes())
			right := base + shm.Addr(((c.ID+1)%c.N)*c.W.PageBytes())
			c.WriteU64(mine, uint64(c.ID))
			c.Barrier()
			for ph := 1; ph <= phases; ph++ {
				v := c.ReadU64(right)
				c.Barrier()
				c.WriteU64(mine, v+1)
				c.Barrier()
			}
			// After k phases each slot's value has propagated around.
			_ = bad
		},
	}
	res := run(t, cfg, app)
	if res.Run.Sum(func(p *stats.Proc) uint64 { return p.Barriers }) == 0 {
		t.Fatal("no barriers counted")
	}
}

// TestLocalVsRemoteLocks: with the token resident, same-node acquires must
// be local; cross-node ones remote.
func TestLocalVsRemoteLocks(t *testing.T) {
	cfg := cfg4x4()
	type st struct{ lock int }
	app := machine.App{
		Name: "locality",
		Setup: func(w *shm.World) any {
			return st{lock: w.NewLock()} // manager = node 0
		},
		Body: func(c *shm.Proc, state any) {
			s := state.(st)
			if c.P.Node.ID == 0 {
				for i := 0; i < 10; i++ {
					c.Lock(s.lock)
					c.Compute(50)
					c.Unlock(s.lock)
				}
			}
			c.Barrier()
			if c.ID == c.N-1 { // last proc, last node: remote acquire
				c.Lock(s.lock)
				c.Unlock(s.lock)
			}
			c.Barrier()
		},
	}
	res := run(t, cfg, app)
	var local, remote uint64
	for i := range res.Run.Procs {
		local += res.Run.Procs[i].LocalLocks
		remote += res.Run.Procs[i].RemoteLocks
	}
	if local < 18 {
		t.Fatalf("local locks = %d, expected most of node 0's 20", local)
	}
	if remote != 1 {
		t.Fatalf("remote locks = %d, want 1", remote)
	}
}

// TestPageFetchCounting: remote reads of a written page must fetch once per
// node, not once per processor.
func TestPageFetchCounting(t *testing.T) {
	cfg := cfg4x4()
	app := machine.App{
		Name: "fetch-count",
		Setup: func(w *shm.World) any {
			return w.AllocPages(8)
		},
		Body: func(c *shm.Proc, state any) {
			a := state.(shm.Addr)
			if c.ID == 0 {
				c.WriteU64(a, 42)
			}
			c.Barrier()
			if c.ReadU64(a) != 42 {
				panic("stale")
			}
			c.Barrier()
		},
	}
	res := run(t, cfg, app)
	fetches := res.Run.Sum(func(p *stats.Proc) uint64 { return p.PageFetches })
	nodes := res.Run.NodeCount
	if fetches > uint64(nodes) {
		t.Fatalf("fetches=%d, want <= %d (one per non-home node)", fetches, nodes)
	}
	if fetches == 0 {
		t.Fatal("no fetches counted")
	}
}

// TestDeterminism: identical configs produce identical cycle counts and
// event counts.
func TestDeterminism(t *testing.T) {
	mk := func() (uint64, uint64) {
		cfg := cfg4x4()
		type st struct {
			base  shm.Addr
			locks []int
		}
		app := machine.App{
			Name: "det",
			Setup: func(w *shm.World) any {
				return st{base: w.AllocPages(64 << 10), locks: w.NewLocks(4)}
			},
			Body: func(c *shm.Proc, state any) {
				s := state.(st)
				for i := 0; i < 200; i++ {
					a := s.base + shm.Addr(c.RandN(8192))*8
					if c.Rand()%3 == 0 {
						l := s.locks[c.RandN(4)]
						c.Lock(l)
						c.WriteU64(a, c.Rand())
						c.Unlock(l)
					} else {
						_ = c.ReadU64(a)
					}
					if i%50 == 0 {
						c.Barrier()
					}
				}
				c.Barrier()
			},
		}
		res, err := machine.Run(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		msgs := res.Run.Sum(func(p *stats.Proc) uint64 { return p.MsgsSent })
		return res.Run.Cycles, msgs
	}
	c1, m1 := mk()
	c2, m2 := mk()
	if c1 != c2 || m1 != m2 {
		t.Fatalf("nondeterministic: cycles %d vs %d, msgs %d vs %d", c1, c2, m1, m2)
	}
}

// TestAllLocalAblation: with remote fetches disabled, no page fetches occur
// and results stay correct.
func TestAllLocalAblation(t *testing.T) {
	cfg := cfg4x4()
	cfg.Proto.AllLocal = true
	app := machine.App{
		Name: "all-local",
		Setup: func(w *shm.World) any {
			return w.AllocPages(4096)
		},
		Body: func(c *shm.Proc, state any) {
			a := state.(shm.Addr)
			if c.ID == 0 {
				for i := 0; i < 64; i++ {
					c.WriteU64(a+shm.Addr(i*8), uint64(i))
				}
			}
			c.Barrier()
			for i := 0; i < 64; i++ {
				if c.ReadU64(a+shm.Addr(i*8)) != uint64(i) {
					panic("stale under AllLocal")
				}
			}
			c.Barrier()
		},
	}
	res := run(t, cfg, app)
	if f := res.Run.Sum(func(p *stats.Proc) uint64 { return p.PageFetches }); f != 0 {
		t.Fatalf("fetches=%d under AllLocal", f)
	}
}

// TestRoundRobinHomes: explicit round-robin homing spreads pages.
func TestRoundRobinHomes(t *testing.T) {
	cfg := cfg4x4()
	cfg.Proto.Homes = proto.RoundRobin
	app := machine.App{
		Name: "rr-homes",
		Setup: func(w *shm.World) any {
			return w.AllocPages(uint64(8 * w.PageBytes()))
		},
		Body: func(c *shm.Proc, state any) {
			base := state.(shm.Addr)
			if c.ID == 0 {
				for pg := 0; pg < 8; pg++ {
					c.WriteU64(base+shm.Addr(pg*c.W.PageBytes()), uint64(pg))
				}
			}
			c.Barrier()
		},
	}
	res := run(t, cfg, app)
	seen := map[int32]bool{}
	for pg := 0; pg < 8; pg++ {
		seen[res.World.Sys.Home(res.World.Sys.PageOf(uint64(pg*cfg.Proto.PageBytes)))] = true
	}
	if len(seen) != res.Run.NodeCount {
		t.Fatalf("round-robin homes hit %d nodes, want %d", len(seen), res.Run.NodeCount)
	}
}

// TestUniprocessorNoTraffic: a 1-processor run must generate no messages,
// fetches or interrupts.
func TestUniprocessorNoTraffic(t *testing.T) {
	cfg := machine.Uniprocessor(cfg4x4())
	app := machine.App{
		Name: "uni",
		Setup: func(w *shm.World) any {
			return w.AllocPages(64 << 10)
		},
		Body: func(c *shm.Proc, state any) {
			a := state.(shm.Addr)
			for i := 0; i < 1000; i++ {
				c.WriteU64(a+shm.Addr((i%8192)*8), uint64(i))
			}
			c.Barrier()
		},
	}
	res := run(t, cfg, app)
	if m := res.Run.Sum(func(p *stats.Proc) uint64 { return p.MsgsSent }); m != 0 {
		t.Fatalf("uniprocessor sent %d messages", m)
	}
	if res.Run.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
}

// TestPropertyScatterGather: random disjoint writes by every processor to a
// shared array (page-interleaved, so heavy false sharing), with interleaved
// barriers; every written value must be visible everywhere afterwards. This
// is the broadest coherence property test.
func TestPropertyScatterGather(t *testing.T) {
	f := func(seed uint32, aurc bool) bool {
		cfg := cfg4x4()
		if aurc {
			cfg.Proto.Mode = proto.AURC
		}
		const n = 512
		ok := true
		app := machine.App{
			Name: "scatter",
			Setup: func(w *shm.World) any {
				return w.AllocPages(n * 8)
			},
			Body: func(c *shm.Proc, state any) {
				base := state.(shm.Addr)
				// Each proc owns indices i with i % N == ID (max false
				// sharing: every page written by every node).
				for i := c.ID; i < n; i += c.N {
					c.WriteU64(base+shm.Addr(i*8), uint64(seed)^uint64(i*2654435761))
				}
				c.Barrier()
				for i := 0; i < n; i++ {
					want := uint64(seed) ^ uint64(i*2654435761)
					if c.ReadU64(base+shm.Addr(i*8)) != want {
						ok = false
					}
				}
				c.Barrier()
			},
		}
		if _, err := machine.Run(cfg, app); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestInterruptsRaisedForRequests: page and lock requests interrupt; diffs,
// acks, grants and barrier traffic must not.
func TestInterruptsRaisedForRequests(t *testing.T) {
	cfg := cfg4x4()
	type st struct {
		addr shm.Addr
		lock int
	}
	app := machine.App{
		Name: "intr",
		Setup: func(w *shm.World) any {
			return st{addr: w.AllocPages(8), lock: w.NewLock()}
		},
		Body: func(c *shm.Proc, state any) {
			s := state.(st)
			c.Lock(s.lock)
			c.WriteU64(s.addr, c.ReadU64(s.addr)+1)
			c.Unlock(s.lock)
			c.Barrier()
		},
	}
	res := run(t, cfg, app)
	intr := res.Run.Sum(func(p *stats.Proc) uint64 { return p.Interrupts })
	fetches := res.Run.Sum(func(p *stats.Proc) uint64 { return p.PageFetches })
	remote := res.Run.Sum(func(p *stats.Proc) uint64 { return p.RemoteLocks })
	if intr == 0 {
		t.Fatal("no interrupts")
	}
	if intr < fetches+remote {
		t.Fatalf("interrupts=%d < fetches+remote locks=%d", intr, fetches+remote)
	}
	// Barrier-only run: no interrupts at all.
	app2 := machine.App{
		Name:  "barrier-only",
		Setup: func(w *shm.World) any { return nil },
		Body: func(c *shm.Proc, state any) {
			for i := 0; i < 5; i++ {
				c.Compute(100)
				c.Barrier()
			}
		},
	}
	res2 := run(t, cfg, app2)
	if got := res2.Run.Sum(func(p *stats.Proc) uint64 { return p.Interrupts }); got != 0 {
		t.Fatalf("barrier-only run took %d interrupts", got)
	}
}

// TestDiffsOnlyForNonHomePages: writes to pages homed at the writing node
// must not produce diffs.
func TestDiffsOnlyForNonHomePages(t *testing.T) {
	cfg := cfg4x4()
	app := machine.App{
		Name: "home-writes",
		Setup: func(w *shm.World) any {
			// One page per processor, homed by first touch.
			return w.AllocPages(uint64(w.Procs()) * uint64(w.PageBytes()))
		},
		Body: func(c *shm.Proc, state any) {
			base := state.(shm.Addr)
			mine := base + shm.Addr(c.ID*c.W.PageBytes())
			c.WriteU64(mine, 1) // first touch: homed here
			c.Barrier()
			for i := 0; i < 50; i++ {
				c.WriteU64(mine+shm.Addr((i%16)*8), uint64(i))
			}
			c.Barrier()
		},
	}
	res := run(t, cfg, app)
	// Pages are only ever written at their homes: zero diffs.
	if d := res.Run.Sum(func(p *stats.Proc) uint64 { return p.DiffsCreated }); d != 0 {
		t.Fatalf("diffs=%d for home-only writes", d)
	}
}

// TestAURCSendsUpdatesNotDiffs confirms the mode switch changes the traffic
// mechanism.
func TestAURCSendsUpdatesNotDiffs(t *testing.T) {
	mk := func(mode proto.Mode) (diffs, updates uint64) {
		cfg := cfg4x4()
		cfg.Proto.Mode = mode
		cfg.Proto.Homes = proto.RoundRobin
		app := machine.App{
			Name: "traffic",
			Setup: func(w *shm.World) any {
				return w.AllocPages(uint64(4 * w.PageBytes()))
			},
			Body: func(c *shm.Proc, state any) {
				base := state.(shm.Addr)
				for i := 0; i < 64; i++ {
					c.WriteU64(base+shm.Addr(((c.ID*64+i)%2048)*8), uint64(i))
				}
				c.Barrier()
			},
		}
		res, err := machine.Run(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		return res.Run.Sum(func(p *stats.Proc) uint64 { return p.DiffsCreated }),
			res.Run.Sum(func(p *stats.Proc) uint64 { return p.UpdatesSent })
	}
	d1, u1 := mk(proto.HLRC)
	if d1 == 0 || u1 != 0 {
		t.Fatalf("HLRC: diffs=%d updates=%d", d1, u1)
	}
	d2, u2 := mk(proto.AURC)
	if d2 != 0 || u2 == 0 {
		t.Fatalf("AURC: diffs=%d updates=%d", d2, u2)
	}
}
