package interrupts

import (
	"errors"
	"reflect"
	"testing"

	"svmsim/internal/engine"
	"svmsim/internal/node"
	"svmsim/internal/stats"
)

func mkNode(s *engine.Sim, nprocs int) *node.Node {
	prm := node.DefaultParams()
	prm.SyncQuantumCycles = 100
	return node.New(s, 0, nprocs, prm, 0)
}

func TestNullInterruptCost(t *testing.T) {
	s := engine.New()
	n := mkNode(s, 1)
	c := New(n, 500, 500, Static)
	var handled engine.Time
	s.At(0, func() {
		c.Raise("null", func(ht *engine.Thread, v *node.Processor) {
			handled = s.Now()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Issue 500 + delivery 500 = a 1000-cycle null interrupt.
	if handled != 1000 {
		t.Fatalf("null interrupt completed at %d, want 1000", handled)
	}
	if n.Procs[0].Stats.Interrupts != 1 {
		t.Fatalf("Interrupts=%d", n.Procs[0].Stats.Interrupts)
	}
}

func TestStaticDeliveryAlwaysProc0(t *testing.T) {
	s := engine.New()
	n := mkNode(s, 4)
	c := New(n, 0, 0, Static)
	victims := map[int]int{}
	for i := 0; i < 6; i++ {
		c.Raise("x", func(ht *engine.Thread, v *node.Processor) {
			victims[v.LocalID]++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if victims[0] != 6 || len(victims) != 1 {
		t.Fatalf("static delivery spread: %v", victims)
	}
}

func TestRoundRobinDeliveryRotates(t *testing.T) {
	s := engine.New()
	n := mkNode(s, 4)
	c := New(n, 0, 0, RoundRobin)
	victims := map[int]int{}
	for i := 0; i < 8; i++ {
		c.Raise("x", func(ht *engine.Thread, v *node.Processor) {
			victims[v.LocalID]++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if victims[i] != 2 {
			t.Fatalf("round robin unbalanced: %v", victims)
		}
	}
}

func TestHandlersSerializeOnVictim(t *testing.T) {
	s := engine.New()
	n := mkNode(s, 1)
	c := New(n, 0, 100, Static)
	var ends []engine.Time
	for i := 0; i < 3; i++ {
		c.Raise("h", func(ht *engine.Thread, v *node.Processor) {
			ht.Delay(400)
			ends = append(ends, s.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []engine.Time{500, 1000, 1500}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("handler ends %v, want %v (serialization)", ends, want)
		}
	}
}

func TestHandlerStealChargedToApp(t *testing.T) {
	s := engine.New()
	n := mkNode(s, 1)
	c := New(n, 200, 300, Static)
	p := n.Procs[0]
	s.At(50, func() {
		c.Raise("steal", func(ht *engine.Thread, v *node.Processor) {
			ht.Delay(100)
		})
	})
	var end engine.Time
	s.Spawn("app", func(th *engine.Thread) {
		p.Bind(th, nil)
		p.Charge(th, 1000, stats.Compute)
		p.Sync(th)
		end = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Delivery (300) + handler body (100) are stolen; issue (200) is not.
	if end != 1400 {
		t.Fatalf("end=%d want 1400", end)
	}
	if got := p.Stats.Time[stats.HandlerSteal]; got != 400 {
		t.Fatalf("HandlerSteal=%d want 400", got)
	}
}

// TestHandlerThreadNames pins the handler thread names that deadlock and
// stall errors list, in every handling mode. Each handler parks forever, so
// the deadlock reports both raises; the second one reuses the cached name.
func TestHandlerThreadNames(t *testing.T) {
	for _, tc := range []struct {
		mode Handling
		want string
	}{
		{Interrupts, "intr-page@n1"},
		{Polling, "poll-page@n1"},
		{Dedicated, "proto-page@n1"},
	} {
		s := engine.New()
		c := New(node.New(s, 1, 2, node.DefaultParams(), 2), 0, 0, Static)
		c.Mode = tc.mode
		for i := 0; i < 2; i++ {
			c.Raise("page", func(ht *engine.Thread, _ *node.Processor) { ht.Park() })
		}
		var dl *engine.DeadlockError
		if err := s.Run(); !errors.As(err, &dl) {
			t.Fatalf("%v: Run() = %v, want a deadlock", tc.mode, err)
		}
		if want := []string{tc.want, tc.want}; !reflect.DeepEqual(dl.Threads, want) {
			t.Errorf("%v: live threads %q, want %q", tc.mode, dl.Threads, want)
		}
	}
}
