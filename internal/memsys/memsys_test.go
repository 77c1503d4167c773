package memsys

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"svmsim/internal/engine"
)

// call adapts a closure to an engine.EventTarget, so a test can schedule it
// with AtTarget.
type call func()

func (c call) HandleEvent(any) { c() }

func TestCacheDirectMappedBasics(t *testing.T) {
	c := NewCache(8192, 1, 32) // 8 KB direct-mapped, 32 B lines: 256 sets
	if c.Lookup(0) {
		t.Fatal("empty cache must miss")
	}
	c.Insert(0)
	if !c.Lookup(0) || !c.Lookup(31) {
		t.Fatal("line 0 should cover bytes 0..31")
	}
	if c.Lookup(32) {
		t.Fatal("byte 32 is the next line")
	}
	// 8192 conflicts with 0 in a direct-mapped 8 KB cache.
	ev, valid, dirty := c.Insert(8192)
	if !valid || ev != 0 || dirty {
		t.Fatalf("expected clean eviction of line 0, got ev=%d valid=%v dirty=%v", ev, valid, dirty)
	}
	if c.Lookup(0) {
		t.Fatal("line 0 must have been evicted")
	}
}

func TestCacheTwoWayLRU(t *testing.T) {
	c := NewCache(128, 2, 32) // 2 sets, 2 ways
	// Addresses 0, 128, 256 all map to set 0 (line numbers 0, 4, 8; 2 sets).
	c.Insert(0)
	c.Insert(128)
	c.Lookup(0) // make 0 MRU, 128 LRU
	ev, valid, _ := c.Insert(256)
	if !valid || ev != 128 {
		t.Fatalf("LRU eviction should pick 128, got %d (valid=%v)", ev, valid)
	}
	if !c.Present(0) || !c.Present(256) || c.Present(128) {
		t.Fatal("wrong residency after LRU eviction")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := NewCache(64, 1, 32) // 2 sets
	c.Insert(0)
	if !c.SetDirty(0) {
		t.Fatal("SetDirty on present line must succeed")
	}
	ev, valid, dirty := c.Insert(64) // conflicts with 0
	if !valid || ev != 0 || !dirty {
		t.Fatalf("expected dirty eviction of 0, got ev=%d valid=%v dirty=%v", ev, valid, dirty)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1024, 2, 32)
	c.Insert(100)
	c.SetDirty(100)
	present, wasDirty := c.Invalidate(100)
	if !present || !wasDirty {
		t.Fatalf("Invalidate: present=%v dirty=%v", present, wasDirty)
	}
	if c.Present(100) {
		t.Fatal("line still present after invalidate")
	}
	present, _ = c.Invalidate(100)
	if present {
		t.Fatal("double invalidate must report absent")
	}
}

func TestCacheInvalidateRange(t *testing.T) {
	c := NewCache(4096, 2, 32)
	for a := uint64(0); a < 256; a += 32 {
		c.Insert(a)
	}
	c.InvalidateRange(30, 100) // touches lines 0,32,64,96,128
	for a := uint64(0); a <= 128; a += 32 {
		if c.Present(a) {
			t.Fatalf("line %d should be invalidated", a)
		}
	}
	if !c.Present(160) {
		t.Fatal("line 160 should survive")
	}
}

// TestCachePropertyResidency cross-checks the cache against a map-based
// model over random operation sequences.
func TestCachePropertyResidency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache(512, 2, 32) // 8 sets, 2 ways
		type way struct {
			line  uint64
			dirty bool
			tick  int
		}
		model := make(map[int][]way) // set -> ways
		tick := 0
		setOf := func(line uint64) int { return int((line / 32) % 8) }
		for op := 0; op < 300; op++ {
			addr := uint64(rng.Intn(64)) * 32
			set := setOf(addr)
			ways := model[set]
			find := func() int {
				for i, w := range ways {
					if w.line == addr {
						return i
					}
				}
				return -1
			}
			switch rng.Intn(4) {
			case 0: // lookup
				hit := c.Lookup(addr)
				i := find()
				if hit != (i >= 0) {
					return false
				}
				if i >= 0 {
					tick++
					ways[i].tick = tick
				}
			case 1: // insert
				c.Insert(addr)
				if i := find(); i < 0 {
					tick++
					if len(ways) < 2 {
						ways = append(ways, way{line: addr, tick: tick})
					} else {
						v := 0
						if ways[1].tick < ways[0].tick {
							v = 1
						}
						ways[v] = way{line: addr, tick: tick}
					}
					model[set] = ways
				} else {
					tick++
					ways[i].tick = tick
				}
			case 2: // set dirty
				ok := c.SetDirty(addr)
				i := find()
				if ok != (i >= 0) {
					return false
				}
				if i >= 0 {
					ways[i].dirty = true
				}
			case 3: // invalidate
				present, _ := c.Invalidate(addr)
				i := find()
				if present != (i >= 0) {
					return false
				}
				if i >= 0 {
					model[set] = append(ways[:i], ways[i+1:]...)
				}
			}
		}
		// Final residency must agree.
		for a := uint64(0); a < 64*32; a += 32 {
			want := false
			for _, w := range model[setOf(a)] {
				if w.line == a {
					want = true
				}
			}
			if c.Present(a) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBusTransferCycles(t *testing.T) {
	s := engine.New()
	b := NewBus(s, "bus", 8, 4, 1, 1, 28)
	if got := b.TransferCycles(32); got != 16 {
		t.Fatalf("32B on 8B-wide /4 bus = 16 cycles, got %d", got)
	}
	if got := b.TransferCycles(1); got != 4 {
		t.Fatalf("1B rounds to one bus word = 4 cycles, got %d", got)
	}
	if got := b.TransferCycles(0); got != 0 {
		t.Fatalf("0B = 0 cycles, got %d", got)
	}
}

func TestBusReadLineSplitTransaction(t *testing.T) {
	s := engine.New()
	b := NewBus(s, "bus", 8, 4, 1, 1, 28)
	var lat engine.Time
	s.Spawn("reader", func(th *engine.Thread) {
		th.Do(b.ReadLineOps(nil, PrioL2, 32)...)
		lat = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// req (2 bus cycles = 8) + DRAM 28 + data (16) = 52.
	if lat != 52 {
		t.Fatalf("uncontended line read latency = %d, want 52", lat)
	}
}

func TestBusSplitTransactionOverlap(t *testing.T) {
	// Two concurrent readers: the second's request phase can proceed while
	// the first waits on DRAM, so total < 2x serial latency.
	s := engine.New()
	b := NewBus(s, "bus", 8, 4, 1, 1, 28)
	var done []engine.Time
	for i := 0; i < 2; i++ {
		s.Spawn("reader", func(th *engine.Thread) {
			th.Do(b.ReadLineOps(nil, PrioL2, 32)...)
			done = append(done, s.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != 52 {
		t.Fatalf("first reader at %d, want 52", done[0])
	}
	if done[1] >= 104 {
		t.Fatalf("second reader at %d: no split-transaction overlap", done[1])
	}
	if done[1] <= 52 {
		t.Fatalf("second reader at %d: bus contention not modeled", done[1])
	}
}

func TestBusPriorityNIOutBeatsNIIn(t *testing.T) {
	s := engine.New()
	b := NewBus(s, "bus", 8, 4, 1, 1, 28)
	var order []string
	s.Spawn("holder", func(th *engine.Thread) {
		th.Do(engine.Op{Res: b.Res, Prio: PrioL2, Cycles: 100})
	})
	s.Spawn("ni-in", func(th *engine.Thread) {
		th.Delay(10)
		b.Res.Acquire(th, PrioNIIn)
		order = append(order, "in")
		b.Res.Release()
	})
	s.Spawn("ni-out", func(th *engine.Thread) {
		th.Delay(20)
		b.Res.Acquire(th, PrioNIOut)
		order = append(order, "out")
		b.Res.Release()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "out" || order[1] != "in" {
		t.Fatalf("NI-out must win arbitration, got %v", order)
	}
}

// waitRetirer retires a line by waiting the cycles wait returns for it (no
// phase at all when wait is nil), then calling retired.
type waitRetirer struct {
	wait    func(line uint64) engine.Time
	retired func(line uint64)
}

func (r waitRetirer) RetireOps(dst []engine.Op, line uint64) []engine.Op {
	if r.wait == nil {
		return dst
	}
	return append(dst, engine.Op{Cycles: r.wait(line)})
}

func (r waitRetirer) Retired(line uint64) {
	if r.retired != nil {
		r.retired(line)
	}
}

// putRetry is a writer's put into a write buffer, as the continuation of its
// waits for space.
type putRetry struct {
	wb   *WriteBuffer
	line uint64
}

func (r *putRetry) Continue(dst []engine.Op) []engine.Op { return r.wb.PutOps(dst, r.line, r) }

// wbPut writes line into wb from th, waiting while the buffer is full, and
// reports whether the write merged into an existing entry.
func wbPut(th *engine.Thread, wb *WriteBuffer, line uint64) (merged bool) {
	merged = wb.Contains(line)
	r := &putRetry{wb: wb, line: line}
	th.Do(r.Continue(nil)...)
	return merged
}

func TestWriteBufferMergeAndDrain(t *testing.T) {
	s := engine.New()
	var retired []uint64
	wb := NewWriteBuffer(s, "wb", 8, 4, waitRetirer{
		wait:    func(uint64) engine.Time { return 10 },
		retired: func(line uint64) { retired = append(retired, line) },
	})
	s.Spawn("writer", func(th *engine.Thread) {
		if merged := wbPut(th, wb, 0); merged {
			t.Error("first put cannot merge")
		}
		if merged := wbPut(th, wb, 0); !merged {
			t.Error("same-line put must merge")
		}
		wbPut(th, wb, 32)
		wbPut(th, wb, 64)
		if wb.Len() != 3 {
			t.Errorf("len=%d want 3 (below retire-at)", wb.Len())
		}
		wbPut(th, wb, 96) // reaches retire-at=4, drain starts
		wb.Flush(th)
		if wb.Len() != 0 {
			t.Errorf("len=%d after flush", wb.Len())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(retired) != 4 {
		t.Fatalf("retired %d lines, want 4", len(retired))
	}
	for i, want := range []uint64{0, 32, 64, 96} {
		if retired[i] != want {
			t.Fatalf("retire order %v, want FIFO", retired)
		}
	}
	if wb.Retired != 4 {
		t.Fatalf("Retired=%d", wb.Retired)
	}
}

func TestWriteBufferFullStalls(t *testing.T) {
	s := engine.New()
	wb := NewWriteBuffer(s, "wb", 2, 2, waitRetirer{wait: func(uint64) engine.Time { return 100 }})
	var t3 engine.Time
	s.Spawn("writer", func(th *engine.Thread) {
		wbPut(th, wb, 0)
		wbPut(th, wb, 32) // full; drain starts
		wbPut(th, wb, 64) // must stall until one retires at t=100
		t3 = s.Now()
		wb.Flush(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if t3 != 100 {
		t.Fatalf("third put completed at %d, want 100 (stall until first retire)", t3)
	}
	if wb.Stalls != 1 {
		t.Fatalf("Stalls=%d, want 1", wb.Stalls)
	}
}

func TestWriteBufferDrop(t *testing.T) {
	s := engine.New()
	var retired []uint64
	wb := NewWriteBuffer(s, "wb", 8, 8, waitRetirer{retired: func(line uint64) { retired = append(retired, line) }})
	s.Spawn("writer", func(th *engine.Thread) {
		wbPut(th, wb, 0)
		wbPut(th, wb, 32)
		if !wb.Drop(32) {
			t.Error("Drop of buffered line must succeed")
		}
		if wb.Drop(999) {
			t.Error("Drop of absent line must fail")
		}
		wb.Flush(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(retired) != 1 || retired[0] != 0 {
		t.Fatalf("retired=%v, want just line 0", retired)
	}
}

// TestWriteBufferPropertyAllRetiredOrDropped: every line put is eventually
// retired exactly once or dropped, never duplicated.
func TestWriteBufferPropertyAllRetiredOrDropped(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := engine.New()
		retired := map[uint64]int{}
		wb := NewWriteBuffer(s, "wb", 4, 2, waitRetirer{
			wait:    func(uint64) engine.Time { return engine.Time(rng.Intn(20) + 1) },
			retired: func(line uint64) { retired[line]++ },
		})
		put := map[uint64]int{}
		dropped := map[uint64]int{}
		ok := true
		s.Spawn("writer", func(th *engine.Thread) {
			for op := 0; op < 100; op++ {
				line := uint64(rng.Intn(10)) * 32
				if rng.Intn(5) == 0 {
					if wb.Drop(line) {
						dropped[line]++
					}
					continue
				}
				if !wbPut(th, wb, line) {
					put[line]++
				}
				th.Delay(engine.Time(rng.Intn(10)))
			}
			wb.Flush(th)
			if wb.Len() != 0 {
				ok = false
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		for line, n := range put {
			if retired[line]+dropped[line] != n {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBusDMAChunks(t *testing.T) {
	s := engine.New()
	b := NewBus(s, "bus", 8, 4, 1, 1, 28)
	var cycles engine.Time
	s.Spawn("ni", func(th *engine.Thread) {
		th.Do(b.DMAOps(nil, PrioNIIn, 1024, 256)...)
		cycles = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 chunks x (req 8 + 256B transfer 128) = 544.
	if cycles != 544 {
		t.Fatalf("DMA cycles = %d, want 544", cycles)
	}
}

// invalidatePerLine is the reference InvalidateRange: one Invalidate per
// line intersecting [addr, addr+size).
func invalidatePerLine(c *Cache, addr uint64, size int) {
	for a := c.LineAddr(addr); a < addr+uint64(size); a += uint64(c.LineBytes()) {
		c.Invalidate(a)
	}
}

func cloneCache(c *Cache) *Cache {
	d := *c
	d.tags = append([]uint64(nil), c.tags...)
	d.dirty = append([]bool(nil), c.dirty...)
	d.lruTick = append([]uint64(nil), c.lruTick...)
	return &d
}

// TestCacheInvalidateRangeMatchesPerLine: on random states of the node's L1
// (8 KB, direct-mapped) and L2 (128 KB, 2-way), the one-pass InvalidateRange
// leaves tags, dirty bits and LRU ticks identical to one Invalidate per line.
// Ranges are the protocol's, unaligned 8-byte diff words and whole pages of
// 1 to 16 KB (which cover the L1's sets twice), plus arbitrary ranges whose
// sets wrap past the last one. The lines just outside each range are cached
// first, so a range that reaches one line too far shows.
func TestCacheInvalidateRangeMatchesPerLine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const span = 512 << 10 // addresses touched: 4x the L2
		for _, c := range []*Cache{NewCache(8<<10, 1, 32), NewCache(128<<10, 2, 32)} {
			for op := 0; op < 4000; op++ {
				a := uint64(rng.Intn(span))
				switch rng.Intn(4) {
				case 0, 1:
					c.Insert(a)
				case 2:
					c.Lookup(a)
				case 3:
					c.SetDirty(a)
				}
			}
			for r := 0; r < 60; r++ {
				var addr uint64
				var size int
				switch rng.Intn(3) {
				case 0:
					addr, size = uint64(rng.Intn(span/8))*8, 8
				case 1:
					size = 1 << (10 + rng.Intn(5))
					addr = uint64(rng.Intn(span/size) * size)
				case 2:
					addr, size = uint64(rng.Intn(span)), rng.Intn(20<<10)+1
				}
				before, after := c.LineAddr(addr)-32, c.LineAddr(addr+uint64(size)-1)+32
				c.Insert(before)
				c.Insert(after)
				c.SetDirty(after)
				want := cloneCache(c)
				invalidatePerLine(want, addr, size)
				c.InvalidateRange(addr, size)
				if !reflect.DeepEqual(c, want) {
					t.Logf("seed %d: InvalidateRange(%d, %d) diverges from per-line Invalidate", seed, addr, size)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// dropScenario fills a 4-entry write buffer whose drain is busy retiring
// its first line, parks four writers on the full buffer and one Flush waiter
// behind them, and at cycle 500 calls drop. It returns the log of wakeups,
// retires and the lines left right after drop.
func dropScenario(drop func(w *WriteBuffer)) []string {
	s := engine.New()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", s.Now())+fmt.Sprintf(format, args...))
	}
	wb := NewWriteBuffer(s, "wb", 4, 4, waitRetirer{
		wait:    func(uint64) engine.Time { return 1000 },
		retired: func(line uint64) { logf("retire %d", line) },
	})
	s.Spawn("filler", func(th *engine.Thread) {
		for _, l := range []uint64{0, 32, 64, 96} {
			wbPut(th, wb, l)
		}
		th.Delay(5) // the drain takes line 0 off; refill its entry
		wbPut(th, wb, 128)
		logf("filler done")
	})
	for i := 1; i <= 4; i++ {
		name, line := fmt.Sprintf("writer%d", i), uint64(1024+32*i)
		s.Spawn(name, func(th *engine.Thread) {
			th.Delay(engine.Time(10 * i))
			wbPut(th, wb, line)
			logf("%s put", name)
		})
	}
	s.Spawn("flusher", func(th *engine.Thread) {
		th.Delay(100)
		for wb.Len() > 0 { // Flush, logging each wakeup
			wb.startDrain()
			wb.empty.Wait(th)
			logf("flusher woke")
		}
		logf("flusher flushed")
	})
	s.AtTarget(500, call(func() {
		drop(wb)
		logf("left %v", wb.lines)
	}), nil)
	if err := s.Run(); err != nil {
		log = append(log, err.Error())
	}
	return log
}

// TestWriteBufferDropRangeMatchesPerLineDrop: writers parked on a full
// buffer and a Flush waiter wake in the same order, at the same cycles, as
// with one Drop per line, and the same lines remain. Emptying the buffer
// puts the Flush waiter's broadcast between the third and fourth writer.
func TestWriteBufferDropRangeMatchesPerLineDrop(t *testing.T) {
	for _, r := range []struct {
		name   string
		lo, hi uint64
		want   string
	}{
		{"empties", 0, 4096, "flusher flushed"},
		{"partial", 64, 127, "left [32 128]"},
		{"none", 2048, 4096, "left [32 64 96 128]"},
	} {
		perLine := dropScenario(func(w *WriteBuffer) {
			for a := r.lo; a < r.hi; a += 32 {
				w.Drop(a)
			}
		})
		oneBatch := dropScenario(func(w *WriteBuffer) { w.DropRange(r.lo, r.hi) })
		got, want := strings.Join(oneBatch, "\n"), strings.Join(perLine, "\n")
		if got != want {
			t.Errorf("%s: DropRange schedule\n%s\nwant per-line Drop schedule\n%s", r.name, got, want)
		}
		if !strings.Contains(got, r.want) {
			t.Errorf("%s: scenario never reached %q:\n%s", r.name, r.want, got)
		}
	}
	// The emptying drop wakes writer1..3, then the flusher, then writer4.
	log := strings.Join(dropScenario(func(w *WriteBuffer) { w.DropRange(0, 4096) }), "\n")
	order := "500 left []\n500 writer1 put\n500 writer2 put\n500 writer3 put\n500 flusher woke\n500 writer4 put"
	if !strings.Contains(log, order) {
		t.Errorf("emptying drop woke writers out of order:\n%s", log)
	}
}
