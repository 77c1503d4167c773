package proto_test

import (
	"fmt"
	"strings"
	"testing"

	"svmsim/internal/engine"
	"svmsim/internal/machine"
	"svmsim/internal/network"
	"svmsim/internal/shm"
	"svmsim/internal/trace"
)

// TestLockProtocolTrace asserts the steps of a remote lock acquire from the
// protocol trace, in order and with their arguments, on single-processor
// nodes where lock 0's manager is node 0. With the token at the manager,
// the manager's handler grants it. With the token at node 1, which is not
// the manager, the manager forwards the request to node 1, whose handler
// grants it and tells the manager the new owner.
func TestLockProtocolTrace(t *testing.T) {
	lockOnce := func(c *shm.Proc, lock int) {
		c.Lock(lock)
		c.Unlock(lock)
	}
	for _, tc := range []struct {
		name     string
		nodes    int
		acquirer int // the processor whose acquire the trace is cut from
		body     func(c *shm.Proc, lock int)
		want     []string
	}{
		{
			name: "token at the manager", nodes: 2, acquirer: 1,
			body: func(c *shm.Proc, lock int) {
				if c.ID == 1 {
					lockOnce(c, lock)
				}
			},
			want: []string{
				"1 acquire-start 0 0",
				"-1 interrupt 0 lock-request",
				"0 lock-request 0 1",
				"0 lock-grant 0 1",
				"-1 grant-deposit 0 1",
				"1 acquire-end 0 1",
			},
		},
		{
			name: "token at a node that is not the manager", nodes: 3, acquirer: 2,
			body: func(c *shm.Proc, lock int) {
				if c.ID == 1 {
					lockOnce(c, lock)
				}
				c.Barrier()
				if c.ID == 2 {
					lockOnce(c, lock)
				}
			},
			want: []string{
				"2 acquire-start 0 0",
				"-1 interrupt 0 lock-request",
				"0 lock-request 0 2",
				"-1 interrupt 1 lock-request",
				"1 lock-request 0 2",
				"1 lock-grant 0 2",
				"-1 grant-deposit 0 2",
				"2 acquire-end 0 1",
				"-1 owner-notice 0 2",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewRecorder(1 << 16)
			cfg := machine.Achievable()
			cfg.Procs, cfg.ProcsPerNode = tc.nodes, 1
			cfg.HeapBytes = 1 << 20
			cfg.Trace = rec
			app := machine.App{
				Name:  "lock-trace",
				Setup: func(w *shm.World) any { return w.NewLock() },
				Body:  func(c *shm.Proc, state any) { tc.body(c, state.(int)) },
			}
			if _, err := machine.Run(cfg, app); err != nil {
				t.Fatal(err)
			}
			var got []string
			var last engine.Time
			for _, e := range rec.Events {
				switch e.Kind {
				case trace.AcquireStart, trace.AcquireEnd, trace.Interrupt, trace.LockRequest,
					trace.LockGrant, trace.GrantDeposit, trace.OwnerNotice:
				default:
					continue
				}
				if len(got) == 0 && (e.Kind != trace.AcquireStart || e.Proc != int32(tc.acquirer)) {
					continue
				}
				if e.At < last {
					t.Fatalf("%s at cycle %d after an event at %d", e.Kind, e.At, last)
				}
				last = e.At
				arg2 := fmt.Sprint(e.Arg2)
				if e.Kind == trace.Interrupt {
					arg2 = network.Kind(e.Arg2).String()
				}
				got = append(got, fmt.Sprintf("%d %s %d %s", e.Proc, e.Kind, e.Arg1, arg2))
			}
			if g, w := strings.Join(got, "\n"), strings.Join(tc.want, "\n"); g != w {
				t.Fatalf("lock protocol trace:\n%s\nwant:\n%s", g, w)
			}
		})
	}
}
