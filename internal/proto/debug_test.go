package proto_test

import (
	"strings"
	"testing"

	"svmsim/internal/machine"
	"svmsim/internal/shm"
	"svmsim/internal/trace"
)

// TestDebugDeadlock runs the determinism-test workload (random reads and
// lock-protected writes between barriers) under a protocol trace, and logs
// the last recorded events if it fails. It stays in the suite as a
// regression canary for protocol hangs.
func TestDebugDeadlock(t *testing.T) {
	cfg := cfg4x4()
	rec := trace.NewRecorder(1 << 20)
	cfg.Trace = rec
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
	if _, err := machine.Run(cfg, app); err != nil {
		var b strings.Builder
		rec.Dump(&b, 64)
		t.Logf("last protocol events:\n%s", b.String())
		t.Fatal(err)
	}
}
