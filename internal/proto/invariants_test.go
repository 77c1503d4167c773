package proto

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"svmsim/internal/engine"
	"svmsim/internal/interrupts"
	"svmsim/internal/network"
	"svmsim/internal/node"
)

// newTestSystem builds a bare System (no machine harness) for white-box
// protocol tests.
func newTestSystem(nodes, ppn int) (*engine.Sim, *System) {
	return newTestSystemPrm(nodes, ppn, DefaultParams())
}

// newTestSystemPrm is newTestSystem with the given protocol parameters.
func newTestSystemPrm(nodes, ppn int, prm Params) (*engine.Sim, *System) {
	sim := engine.New()
	netPrm := network.Params{
		HostOverheadCycles: 100,
		NIOccupancyCycles:  100,
		IOBytesPerCycle:    1.0,
		LinkBytesPerCycle:  2.0,
		LinkLatencyCycles:  20,
		MaxPacketBytes:     2048,
		HeaderBytes:        32,
	}
	sy := NewSystem(sim, SystemConfig{
		Nodes:             nodes,
		ProcsPerNode:      ppn,
		HeapBytes:         1 << 20,
		NodePrm:           node.DefaultParams(),
		NetPrm:            netPrm,
		ProtoPrm:          prm,
		IntrIssueCycles:   100,
		IntrDeliverCycles: 100,
		IntrPolicy:        interrupts.Static,
	})
	return sim, sy
}

// TestImageCoversAllocatedPages: at every page size, each node's memory
// image is exactly the allocated heap rounded up to whole pages, and an
// allocation past HeapBytes panics without growing any image.
func TestImageCoversAllocatedPages(t *testing.T) {
	for pb := 1 << 10; pb <= 16<<10; pb <<= 1 {
		prm := DefaultParams()
		prm.PageBytes = pb
		_, sy := newTestSystemPrm(2, 1, prm)
		page := uint64(pb)
		check := func(op string, wantPages uint64) {
			t.Helper()
			want := (sy.nextAlloc + page - 1) / page * page
			if want != wantPages*page {
				t.Fatalf("page %d, after %s: next alloc %d, want it within %d pages", pb, op, sy.nextAlloc, wantPages)
			}
			for _, nd := range sy.Nodes {
				if got := uint64(len(nd.Mem)); got != want {
					t.Fatalf("page %d, after %s: node %d image holds %d bytes, want %d", pb, op, nd.ID, got, want)
				}
			}
		}
		check("NewSystem", 0)
		sy.Alloc(1, 8)
		check("Alloc(1)", 1)
		sy.Alloc(1000, 8) // [8, 1008): still inside the first page
		check("Alloc(1000)", 1)
		sy.AllocPages(3*page + 8) // [page, 4*page+8)
		check("AllocPages(3 pages + 8)", 5)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "shared heap exhausted") {
					t.Fatalf("page %d: Alloc past HeapBytes recovered %q, want a heap-exhausted panic", pb, msg)
				}
			}()
			sy.Alloc(sy.Cfg.HeapBytes, 8)
		}()
		check("exhausted Alloc", 5)
	}
}

// checkLogCompleteness verifies the core HLRC bookkeeping invariant: each
// node's notice log for every origin contains exactly the contiguous
// intervals 1..vc[origin].
func checkLogCompleteness(sy *System) error {
	for n, ns := range sy.ns {
		for o := range ns.log {
			base := ns.logBase[o]
			want := ns.vc[o] - base
			if uint32(len(ns.log[o])) != want {
				return fmt.Errorf("node %d: log[%d] has %d recs, vc=%d base=%d", n, o, len(ns.log[o]), ns.vc[o], base)
			}
			for i, rec := range ns.log[o] {
				if rec.Interval != base+uint32(i+1) {
					return fmt.Errorf("node %d: log[%d][%d] has interval %d (base %d)", n, o, i, rec.Interval, base)
				}
				if int(rec.Origin) != o {
					return fmt.Errorf("node %d: log[%d][%d] has origin %d", n, o, i, rec.Origin)
				}
			}
		}
	}
	return nil
}

// checkTokenUniqueness verifies that each lock's token exists at exactly one
// node (or is in flight: then zero holders but someone requested).
func checkTokenUniqueness(sy *System) error {
	for id := range sy.locks {
		holders := 0
		for _, ns := range sy.ns {
			if ns.locks[id].haveToken {
				holders++
			}
		}
		if holders > 1 {
			return fmt.Errorf("lock %d held by %d nodes", id, holders)
		}
	}
	return nil
}

// checkTwinDiscipline verifies twins exist exactly for writable non-home
// HLRC pages.
func checkTwinDiscipline(sy *System) error {
	if sy.Prm.Mode != HLRC {
		return nil
	}
	for n, ns := range sy.ns {
		for pg, st := range ns.state {
			_, hasTwin := ns.twins[int32(pg)]
			isHome := int(sy.pageHome[pg]) == n
			wantTwin := st == pgWritable && !isHome && sy.pageHome[pg] >= 0
			if wantTwin != hasTwin {
				return fmt.Errorf("node %d page %d: state=%d home=%v twin=%v", n, pg, st, isHome, hasTwin)
			}
		}
	}
	return nil
}

// TestProtocolInvariantsUnderRandomOps drives random shared-memory traffic
// (reads, writes, lock-protected writes) directly against the protocol and
// checks the bookkeeping invariants at every barrier and at the end. Every
// processor meets a barrier at the same op positions, so the program always
// completes: a deadlock is a protocol failure, not an artifact of the op
// streams.
func TestProtocolInvariantsUnderRandomOps(t *testing.T) {
	const ops, barrierEvery = 120, 20
	f := func(seed uint32) bool {
		sim, sy := newTestSystem(4, 2)
		base := sy.AllocPages(64 << 10)
		var lockIDs []int
		for i := 0; i < 4; i++ {
			lockIDs = append(lockIDs, sy.NewLock())
		}
		// Simulated threads run one at a time, so a plain variable is safe.
		var barrierErr error
		for i := 0; i < 8; i++ {
			p := sy.Procs[i]
			rng := uint64(seed)*2654435761 + uint64(i)*0x9e3779b9 + 1
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			sim.Spawn(fmt.Sprintf("proc%d", i), func(th *engine.Thread) {
				p.Bind(th, nil)
				for op := 1; op <= ops; op++ {
					if op%barrierEvery == 0 {
						sy.Barrier(th, p)
						if p.LocalID == 0 && barrierErr == nil {
							barrierErr = checkTokenUniqueness(sy)
						}
						continue
					}
					addr := base + uint64(next(8192))*8
					switch next(4) {
					case 0, 1:
						sy.ReadWord(th, p, addr)
					case 2:
						l := lockIDs[next(len(lockIDs))]
						sy.Acquire(th, p, l)
						sy.WriteWord(th, p, addr, rng)
						sy.Release(th, p, l)
					case 3:
						sy.WriteWord(th, p, addr, rng)
					}
				}
			})
		}
		if err := sim.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, err := range []error{barrierErr, checkLogCompleteness(sy), checkTwinDiscipline(sy)} {
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestNoticeLogAppendOrder checks appendLog keeps per-origin logs sorted and
// deduplicated under arbitrary insertion orders.
func TestNoticeLogAppendOrder(t *testing.T) {
	f := func(raw []uint8) bool {
		_, sy := newTestSystem(2, 1)
		ns := sy.ns[0]
		seen := map[uint32]bool{}
		for _, r := range raw {
			iv := uint32(r%30) + 1
			ns.appendLog(Notice{Origin: 1, Interval: iv, Pages: []int32{int32(iv)}})
			seen[iv] = true
		}
		l := ns.log[1]
		if len(l) != len(seen) {
			return false
		}
		for i := 1; i < len(l); i++ {
			if l[i-1].Interval >= l[i].Interval {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestNoticesSinceCut checks noticesSince returns exactly the records above
// the cut for each origin.
func TestNoticesSinceCut(t *testing.T) {
	_, sy := newTestSystem(3, 1)
	ns := sy.ns[0]
	for o := int32(0); o < 3; o++ {
		for iv := uint32(1); iv <= 5; iv++ {
			ns.appendLog(Notice{Origin: o, Interval: iv, Pages: []int32{int32(iv)}})
		}
	}
	got := ns.noticesSince([]uint32{2, 5, 0})
	// Expect origins 0:(3,4,5), 1:(), 2:(1..5) => 8 records.
	if len(got) != 8 {
		t.Fatalf("got %d notices, want 8", len(got))
	}
	for _, rec := range got {
		lowCut := []uint32{2, 5, 0}[rec.Origin]
		if rec.Interval <= lowCut {
			t.Fatalf("notice origin %d interval %d below cut %d", rec.Origin, rec.Interval, lowCut)
		}
	}
}

// TestFirstTouchHomesAtToucher verifies the home policy.
func TestFirstTouchHomesAtToucher(t *testing.T) {
	sim, sy := newTestSystem(4, 1)
	base := sy.AllocPages(4 * uint64(sy.Prm.PageBytes))
	for i := 0; i < 4; i++ {
		p := sy.Procs[i]
		addr := base + uint64(i)*uint64(sy.Prm.PageBytes)
		sim.Spawn(fmt.Sprintf("p%d", i), func(th *engine.Thread) {
			p.Bind(th, nil)
			sy.WriteWord(th, p, addr, uint64(i))
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pg := sy.PageOf(base + uint64(i)*uint64(sy.Prm.PageBytes))
		if home := sy.Home(pg); home != int32(i) {
			t.Errorf("page %d homed at %d, want %d", pg, home, i)
		}
	}
}

// TestWireSizeAccounting checks that notice payload sizing is consistent
// with the notices carried.
func TestWireSizeAccounting(t *testing.T) {
	_, sy := newTestSystem(2, 1)
	recs := []Notice{
		{Origin: 0, Interval: 1, Pages: []int32{1, 2, 3}},
		{Origin: 1, Interval: 4, Pages: []int32{9}},
	}
	got := sy.noticesWireBytes(recs)
	want := 2*sy.Prm.NoticeBytes + 4*4
	if got != want {
		t.Fatalf("noticesWireBytes=%d want %d", got, want)
	}
}

// TestLogTruncationAtBarriers checks that the notice logs shrink at
// barriers: after many write+barrier phases, no node retains more than the
// records since the last barrier.
func TestLogTruncationAtBarriers(t *testing.T) {
	sim, sy := newTestSystem(4, 2)
	base := sy.AllocPages(256 << 10)
	const phases = 12
	for i := 0; i < 8; i++ {
		p := sy.Procs[i]
		id := i
		sim.Spawn(fmt.Sprintf("proc%d", id), func(th *engine.Thread) {
			p.Bind(th, nil)
			for ph := 0; ph < phases; ph++ {
				// Everyone writes its own region (interval per phase).
				for k := 0; k < 64; k++ {
					sy.WriteWord(th, p, base+uint64((id*4096+ph*64+k)*8), uint64(ph))
				}
				sy.Barrier(th, p)
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for n, ns := range sy.ns {
		for o := range ns.log {
			if len(ns.log[o]) > 2 {
				t.Errorf("node %d retains %d records for origin %d after truncation", n, len(ns.log[o]), o)
			}
			if ns.logBase[o] == 0 && ns.vc[o] > 2 {
				t.Errorf("node %d never truncated origin %d (vc=%d)", n, o, ns.vc[o])
			}
		}
	}
	if err := checkLogCompleteness(sy); err != nil {
		t.Fatal(err)
	}
}
