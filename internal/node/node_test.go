package node

import (
	"fmt"
	"math/rand"
	"testing"

	"svmsim/internal/engine"
	"svmsim/internal/stats"
)

// call adapts a closure to an engine.EventTarget, so a test can schedule it
// with AtTarget.
type call func()

func (c call) HandleEvent(any) { c() }

// testNode builds a node whose image covers the first MB, which every
// address the tests access lies in, as Access requires.
func testNode(s *engine.Sim, nprocs int) *Node {
	prm := DefaultParams()
	prm.SyncQuantumCycles = 100 // tight quantum so tests see engine time move
	n := New(s, 0, nprocs, prm, 0)
	n.Grow(1 << 20)
	return n
}

func TestMemoryImageWords(t *testing.T) {
	s := engine.New()
	n := New(s, 0, 1, DefaultParams(), 0)
	if len(n.Mem) != 0 {
		t.Fatalf("new node image holds %d bytes, want 0", len(n.Mem))
	}
	n.Grow(4096)
	if len(n.Mem) != 4096 {
		t.Fatalf("Grow(4096) left %d bytes", len(n.Mem))
	}
	n.WriteWord(64, 0xdeadbeefcafe)
	if got := n.ReadWord(64); got != 0xdeadbeefcafe {
		t.Fatalf("ReadWord=%x", got)
	}
	if got := n.ReadWord(72); got != 0 {
		t.Fatalf("neighbor word clobbered: %x", got)
	}
	// Growing keeps the contents and zero-fills the new tail; a smaller
	// size never shrinks the image.
	n.Grow(3 * 4096)
	if len(n.Mem) != 3*4096 {
		t.Fatalf("Grow(12288) left %d bytes", len(n.Mem))
	}
	if got := n.ReadWord(64); got != 0xdeadbeefcafe {
		t.Fatalf("Grow lost contents: ReadWord=%x", got)
	}
	for a := uint64(4096); a < 3*4096; a += 8 {
		if got := n.ReadWord(a); got != 0 {
			t.Fatalf("grown word at %d = %x, want 0", a, got)
		}
	}
	n.Grow(4096)
	if len(n.Mem) != 3*4096 {
		t.Fatalf("Grow(4096) shrank the image to %d bytes", len(n.Mem))
	}
	if got := n.ReadWord(64); got != 0xdeadbeefcafe {
		t.Fatalf("smaller Grow lost contents: ReadWord=%x", got)
	}
}

func TestAccessHitMissProgression(t *testing.T) {
	s := engine.New()
	n := testNode(s, 1)
	p := n.Procs[0]
	s.Spawn("app", func(th *engine.Thread) {
		p.Bind(th, nil)
		p.Access(th, 0, false) // cold: full miss
		if p.Stats.Misses != 1 {
			t.Errorf("Misses=%d want 1", p.Stats.Misses)
		}
		p.Access(th, 8, false) // same line: L1 hit
		if p.Stats.L1Hits != 1 {
			t.Errorf("L1Hits=%d want 1", p.Stats.L1Hits)
		}
		// Evict line 0 from L1 (8 KB direct mapped): address 0+8192 maps to
		// the same L1 set but a different L2 set (128 KB 2-way).
		p.Access(th, 8192, false)
		p.Access(th, 0, false) // L1 conflict evicted it; should hit L2
		if p.Stats.L2Hits != 1 {
			t.Errorf("L2Hits=%d want 1", p.Stats.L2Hits)
		}
		p.Sync(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteGoesThroughWriteBuffer(t *testing.T) {
	s := engine.New()
	n := testNode(s, 1)
	p := n.Procs[0]
	s.Spawn("app", func(th *engine.Thread) {
		p.Bind(th, nil)
		p.Access(th, 0, true)
		if p.WB.Len() != 1 {
			t.Errorf("WB.Len=%d want 1", p.WB.Len())
		}
		p.Access(th, 16, true) // same line merges
		if p.WB.Len() != 1 || p.Stats.WBHits != 1 {
			t.Errorf("merge failed: len=%d hits=%d", p.WB.Len(), p.Stats.WBHits)
		}
		// A read of the buffered line is a write-buffer hit.
		p.Access(th, 8, false)
		if p.Stats.WBHits != 2 {
			t.Errorf("read WB hit not counted: %d", p.Stats.WBHits)
		}
		p.FlushWB(th)
		if p.WB.Len() != 0 {
			t.Errorf("flush left %d entries", p.WB.Len())
		}
		p.Sync(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSnoopInvalidation(t *testing.T) {
	s := engine.New()
	n := testNode(s, 2)
	p0, p1 := n.Procs[0], n.Procs[1]
	s.Spawn("app", func(th *engine.Thread) {
		p0.Bind(th, nil)
		p1.Bind(th, nil)
		p0.Access(th, 0, false) // p0 caches line 0
		if !p0.L1.Present(0) {
			t.Error("p0 should cache line 0")
		}
		p1.Access(th, 0, true) // p1 writes: snoop must invalidate p0
		if p0.L1.Present(0) || p0.L2.Present(0) {
			t.Error("snoop invalidation failed")
		}
		p0.Sync(th)
		p1.Sync(th)
		p0.FlushWB(th)
		p1.FlushWB(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChargeLagFoldsIntoTime(t *testing.T) {
	s := engine.New()
	n := testNode(s, 1)
	p := n.Procs[0]
	s.Spawn("app", func(th *engine.Thread) {
		p.Bind(th, nil)
		p.Charge(th, 30, stats.Compute)
		if s.Now() != 0 {
			t.Errorf("small charge should not advance engine time, now=%d", s.Now())
		}
		p.Sync(th)
		if s.Now() != 30 {
			t.Errorf("after sync now=%d want 30", s.Now())
		}
		p.Charge(th, 150, stats.Compute) // exceeds quantum 100: auto-sync
		if s.Now() != 180 {
			t.Errorf("auto-sync now=%d want 180", s.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerStealExtendsCompute(t *testing.T) {
	s := engine.New()
	n := testNode(s, 1)
	p := n.Procs[0]
	// A "handler" steals 200 cycles at t=50.
	s.AtTarget(50, call(func() {
		s.Spawn("handler", func(ht *engine.Thread) {
			p.HandlerRes.Acquire(ht, 0)
			p.HandlerEnter()
			start := s.Now()
			ht.Delay(200)
			p.HandlerExit(s.Now() - start)
			p.HandlerRes.Release()
		})
	}), nil)
	var end engine.Time
	s.Spawn("app", func(th *engine.Thread) {
		p.Bind(th, nil)
		p.Charge(th, 500, stats.Compute)
		p.Sync(th)
		end = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 500 compute + 200 stolen = 700.
	if end != 700 {
		t.Fatalf("end=%d want 700", end)
	}
	if p.Stats.Time[stats.HandlerSteal] != 200 {
		t.Fatalf("HandlerSteal=%d want 200", p.Stats.Time[stats.HandlerSteal])
	}
}

func TestBlockedWakeWaitsOutHandler(t *testing.T) {
	s := engine.New()
	n := testNode(s, 1)
	p := n.Procs[0]
	cond := engine.NewCond(s)
	// App blocks at t=0; reply arrives at t=100 while a handler runs
	// t=80..380; app must not resume protocol work until 380.
	s.AtTarget(80, call(func() {
		s.Spawn("handler", func(ht *engine.Thread) {
			p.HandlerRes.Acquire(ht, 0)
			p.HandlerEnter()
			start := s.Now()
			ht.Delay(300)
			p.HandlerExit(s.Now() - start)
			p.HandlerRes.Release()
		})
	}), nil)
	s.AtTarget(100, call(func() { cond.Signal() }), nil)
	var resumed engine.Time
	s.Spawn("app", func(th *engine.Thread) {
		p.Bind(th, nil)
		cond.Wait(th)
		p.BlockedWake(th)
		resumed = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 380 {
		t.Fatalf("resumed at %d want 380", resumed)
	}
}

func TestInvalidateRangeClearsAllProcs(t *testing.T) {
	s := engine.New()
	n := testNode(s, 2)
	s.Spawn("app", func(th *engine.Thread) {
		for _, p := range n.Procs {
			p.Bind(th, nil)
			p.Access(th, 4096, false)
			p.Access(th, 4128, false)
			p.Sync(th)
		}
		n.InvalidateRange(4096, 64)
		for i, p := range n.Procs {
			if p.L1.Present(4096) || p.L2.Present(4096) || p.L1.Present(4128) || p.L2.Present(4128) {
				t.Errorf("proc %d still caches invalidated range", i)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBusContentionBetweenProcessors(t *testing.T) {
	// Two processors missing on disjoint lines contend for the node bus;
	// total time must exceed a single uncontended miss.
	s := engine.New()
	n := testNode(s, 2)
	var ends [2]engine.Time
	for i := 0; i < 2; i++ {
		p := n.Procs[i]
		s.Spawn("app", func(th *engine.Thread) {
			p.Bind(th, nil)
			for k := 0; k < 8; k++ {
				p.Access(th, uint64(0x10000*(p.LocalID+1)+k*4096), false)
			}
			p.Sync(th)
			ends[p.LocalID] = s.Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	solo := func() engine.Time {
		s2 := engine.New()
		n2 := testNode(s2, 1)
		var end engine.Time
		p := n2.Procs[0]
		s2.Spawn("app", func(th *engine.Thread) {
			p.Bind(th, nil)
			for k := 0; k < 8; k++ {
				p.Access(th, uint64(0x10000+k*4096), false)
			}
			p.Sync(th)
			end = s2.Now()
		})
		if err := s2.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}()
	if ends[0] <= solo && ends[1] <= solo {
		t.Fatalf("no bus contention visible: duo=%v solo=%d", ends, solo)
	}
}

// TestWhereString: a breadcrumb formats as the text the protocol once built
// at every wait, handler-drain suffixes included.
func TestWhereString(t *testing.T) {
	for _, tc := range []struct {
		w    Where
		want string
	}{
		{Where{}, ""},
		{Where{Op: "wb-flush"}, "wb-flush"},
		{Where{Op: "lock-grant-wait", Arg: "lock", N: 3}, "lock-grant-wait lock=3"},
		{Where{Op: "fetch-wait", Arg: "pg", N: 17, Fetch: true, Epoch: 2}, "fetch-wait pg=17 epoch=2 fetching=false"},
		{Where{Op: "lock-grant-wake", Arg: "lock", N: 0, Drains: 2}, "lock-grant-wake lock=0 [handler-drain] [handler-drain]"},
		{Where{Drains: 1}, " [handler-drain]"},
	} {
		if got := tc.w.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.w, got, tc.want)
		}
	}
}

// TestHolderRecordCoversHeldLines drives random reads, writes, write-buffer
// flushes and range invalidations from every processor of nodes of 4 and 12
// processors (one and two bytes of record per line) and checks the holder
// invariant after every step: a processor that holds a line in its L1 or L2
// (Present) or its write buffer (Contains) has the line's bit set. The lines
// share L1 and L2 sets, so fills evict, and a tight lag quantum makes reads
// and writes stall and interleave with other processors' snoops.
func TestHolderRecordCoversHeldLines(t *testing.T) {
	var lines []uint64
	for _, base := range []uint64{0, 8 << 10, 64 << 10, 128 << 10, 192 << 10, 320 << 10} {
		for off := uint64(0); off < 4*32; off += 32 {
			lines = append(lines, base+off)
		}
	}
	for _, nprocs := range []int{4, 12} {
		for seed := int64(1); seed <= 20; seed++ {
			s := engine.New()
			n := testNode(s, nprocs)
			steps := 0
			check := func(p *Processor, step string) {
				steps++
				for _, line := range lines {
					row := n.holders[n.holderRow(line):]
					for _, q := range n.Procs {
						held := q.L1.Present(line) || q.L2.Present(line) || q.WB.Contains(line)
						if held && row[q.hbyte]&q.hbit == 0 {
							s.Fail(fmt.Errorf("%d procs, seed %d: after proc %d's %s at cycle %d, proc %d holds line %#x with its holder bit clear",
								nprocs, seed, p.LocalID, step, s.Now(), q.LocalID, line))
						}
					}
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for _, p := range n.Procs {
				prng := rand.New(rand.NewSource(rng.Int63()))
				s.Spawn(fmt.Sprintf("cpu%d", p.LocalID), func(th *engine.Thread) {
					p.Bind(th, nil)
					for i := 0; i < 300; i++ {
						line := lines[prng.Intn(len(lines))]
						var step string
						switch k := prng.Intn(20); {
						case k < 8:
							p.Access(th, line+uint64(prng.Intn(4))*8, false)
							step = "read"
						case k < 16:
							p.Access(th, line+uint64(prng.Intn(4))*8, true)
							step = "write"
						case k < 17:
							p.FlushWB(th)
							step = "flush"
						case k < 19:
							size := []int{8, 32, 100, 4096}[prng.Intn(4)]
							n.InvalidateRange(line+uint64(prng.Intn(4))*8, size)
							step = "invalidate"
						default:
							p.ComputeCycles(th, engine.Time(prng.Intn(150)))
							step = "compute"
						}
						check(p, step)
					}
					p.FlushWB(th)
					p.Sync(th)
				})
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if steps != 300*nprocs {
				t.Fatalf("%d procs, seed %d: checked %d steps, want %d", nprocs, seed, steps, 300*nprocs)
			}
		}
	}
}
