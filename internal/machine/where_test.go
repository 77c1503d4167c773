package machine

import (
	"errors"
	"reflect"
	"testing"

	"svmsim/internal/engine"
	"svmsim/internal/shm"
)

// twoLockState is twoLockApp's shared state: a counter page per lock.
type twoLockState struct {
	addr  shm.Addr
	locks [2]int
}

// twoLockApp has the even processors increment a counter on page 1 under
// lock 0 and the odd ones a counter on page 2 under lock 1, per times each.
func twoLockApp(per int) App {
	return App{
		Name: "two-lock",
		Setup: func(w *shm.World) any {
			st := twoLockState{addr: w.AllocPages(4 * 4096)}
			st.locks[0], st.locks[1] = w.NewLock(), w.NewLock()
			return st
		},
		Body: func(c *shm.Proc, state any) {
			s := state.(twoLockState)
			k := c.ID % 2
			a := s.addr + shm.Addr(4096*(1+k))
			for i := 0; i < per; i++ {
				c.Lock(s.locks[k])
				c.WriteU64(a, c.ReadU64(a)+1)
				c.Unlock(s.locks[k])
				c.Compute(300)
			}
			c.Barrier()
		},
	}
}

// TestStallDiagnosticsPinned pins the per-processor lines a StallError
// carries while processors wait in remote lock acquires, local lock queues
// and page fetches, byte for byte: each names the operation with its lock or
// page, a fetch its epoch and in-flight flag, and a processor running a
// handler says so.
func TestStallDiagnosticsPinned(t *testing.T) {
	for _, tc := range []struct {
		maxCycles engine.Time
		want      []string
	}{
		{5_000, []string{
			"proc0: lock-grant-wait lock=0 [1 handlers active]",
			"proc1: fetch-wait pg=2 epoch=1 fetching=true",
			"proc2: fetch-wait pg=1 epoch=1 fetching=true [1 handlers active]",
			"proc3: lock-grant-wait lock=1",
			"proc4: lock-grant-wait lock=0",
			"proc5: lock-grant-wait lock=1",
			"proc6: lock-grant-wait lock=0",
			"proc7: lock-grant-wait lock=1",
		}},
		{50_000, []string{
			"proc0: running",
			"proc1: lock-local-wait lock=1",
			"proc2: running [1 handlers active]",
			"proc3: barrier-local-wait",
			"proc4: fetch-wait pg=1 epoch=3 fetching=true [1 handlers active]",
			"proc5: fetch-wait pg=2 epoch=3 fetching=true",
			"proc6: lock-grant-wait lock=0",
			"proc7: lock-grant-wait lock=1",
		}},
	} {
		cfg := base()
		cfg.MaxCycles = tc.maxCycles
		_, err := Run(cfg, twoLockApp(10))
		var se *engine.StallError
		if !errors.As(err, &se) {
			t.Fatalf("MaxCycles %d: want a *StallError, got %v", tc.maxCycles, err)
		}
		if !reflect.DeepEqual(se.Diagnostics, tc.want) {
			t.Errorf("MaxCycles %d: diagnostics\n%q\nwant\n%q", tc.maxCycles, se.Diagnostics, tc.want)
		}
	}
}

// TestWriteBufferStallBreadcrumb: a StallError taken while a processor waits
// for space in its full write buffer names wb-full-stall for it, and one
// taken after the stall, while it computes, finds the breadcrumb cleared.
// Processor 0 writes 64 lines back to back, so its 8-entry buffer fills
// while the drain retires, and then computes; the others wait at the
// barrier.
func TestWriteBufferStallBreadcrumb(t *testing.T) {
	app := App{
		Name:  "wb-burst",
		Setup: func(w *shm.World) any { return w.AllocPages(4 * 4096) },
		Body: func(c *shm.Proc, state any) {
			a := state.(shm.Addr)
			if c.ID == 0 {
				for i := 0; i < 64; i++ {
					c.WriteU64(a+shm.Addr(32*i), uint64(i))
				}
				c.Compute(100_000)
			}
			c.Barrier()
		},
	}
	for _, tc := range []struct {
		maxCycles engine.Time
		want      string
	}{
		{1_000, "proc0: wb-full-stall"},
		{50_000, "proc0: running"},
	} {
		cfg := base()
		cfg.MaxCycles = tc.maxCycles
		_, err := Run(cfg, app)
		var se *engine.StallError
		if !errors.As(err, &se) {
			t.Fatalf("MaxCycles %d: want a *StallError, got %v", tc.maxCycles, err)
		}
		if got := se.Diagnostics[0]; got != tc.want {
			t.Errorf("MaxCycles %d: %q, want %q", tc.maxCycles, got, tc.want)
		}
	}
}
