package proto_test

import (
	"testing"

	"svmsim/internal/machine"
	"svmsim/internal/shm"
)

// TestDebugDeadlock runs the determinism-test workload (random reads and
// lock-protected writes between barriers) and dumps the lock state if it
// fails. It stays in the suite as a regression canary for protocol hangs.
func TestDebugDeadlock(t *testing.T) {
	cfg := cfg4x4()
	type st struct {
		base  shm.Addr
		locks []int
	}
	app := machine.App{
		Name: "det-debug",
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
	if res, err := machine.Run(cfg, app); err != nil {
		if res != nil && res.World != nil {
			t.Logf("lock state:\n%s", res.World.Sys.DumpLocks())
		}
		t.Fatal(err)
	}
}
