package interrupts

import (
	"errors"
	"reflect"
	"testing"

	"svmsim/internal/engine"
	"svmsim/internal/network"
	"svmsim/internal/node"
	"svmsim/internal/stats"
)

// call adapts a closure to an engine.EventTarget, so a test can schedule it
// with AtTarget.
type call func()

func (c call) HandleEvent(any) { c() }

// handle adapts a closure to a Handler, so a test can raise it.
type handle func(t *engine.Thread, victim *node.Processor)

func (h handle) HandleRequest(t *engine.Thread, victim *node.Processor, _ *network.Message) {
	h(t, victim)
}

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
	s.AtTarget(0, call(func() {
		c.Raise("null", handle(func(ht *engine.Thread, v *node.Processor) {
			handled = s.Now()
		}), nil)
	}), nil)
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
		c.Raise("x", handle(func(ht *engine.Thread, v *node.Processor) {
			victims[v.LocalID]++
		}), nil)
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
		c.Raise("x", handle(func(ht *engine.Thread, v *node.Processor) {
			victims[v.LocalID]++
		}), nil)
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
		c.Raise("h", handle(func(ht *engine.Thread, v *node.Processor) {
			ht.Delay(400)
			ends = append(ends, s.Now())
		}), nil)
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
	s.AtTarget(50, call(func() {
		c.Raise("steal", handle(func(ht *engine.Thread, v *node.Processor) {
			ht.Delay(100)
		}), nil)
	}), nil)
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
			c.Raise("page", handle(func(ht *engine.Thread, _ *node.Processor) { ht.Park() }), nil)
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

// TestHandlerThreadReuse checks, in every handling mode, that requests of
// one kind raised one after another run on one handler thread, made once
// under its usual name, and that a handler that never returns keeps its
// thread: the next request gets a new one, and the deadlock lists the
// parked thread under that name beside it.
func TestHandlerThreadReuse(t *testing.T) {
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
		base := s.Counts().Threads
		var threads []*engine.Thread
		// Requests are 10,000 cycles apart, so each handler has returned
		// (or parked) by the next raise. The third handler parks forever
		// and keeps the victim's CPU, so the fourth request waits for it.
		for i, req := range []struct {
			park bool
			made uint64 // threads made once the request is raised
		}{{false, 1}, {false, 1}, {true, 1}, {false, 2}} {
			s.AtTarget(engine.Time(i)*10_000, call(func() {
				c.Raise("page", handle(func(ht *engine.Thread, _ *node.Processor) {
					threads = append(threads, ht)
					ht.Delay(100)
					if req.park {
						ht.Park()
					}
				}), nil)
				if got := s.Counts().Threads - base; got != req.made {
					t.Errorf("%v: %d threads made after request %d, want %d", tc.mode, got, i, req.made)
				}
			}), nil)
		}
		var dl *engine.DeadlockError
		if err := s.Run(); !errors.As(err, &dl) {
			t.Fatalf("%v: Run() = %v, want a deadlock", tc.mode, err)
		}
		if len(threads) != 3 || threads[1] != threads[0] || threads[2] != threads[0] {
			t.Errorf("%v: sequential requests did not share one thread", tc.mode)
		}
		if want := []string{tc.want, tc.want}; !reflect.DeepEqual(dl.Threads, want) {
			t.Errorf("%v: live threads %q, want %q", tc.mode, dl.Threads, want)
		}
	}
}
