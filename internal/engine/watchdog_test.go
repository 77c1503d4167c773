package engine

import (
	"errors"
	"fmt"
	"testing"
)

// ticker is an EventTarget that re-arms itself forever: the livelock shape a
// drained-queue deadlock check cannot see.
type ticker struct {
	s     *Sim
	fires int
}

func (tk *ticker) HandleEvent(any) {
	tk.fires++
	tk.s.AtTarget(100, tk, nil)
}

// TestMaxCyclesStall: a self-rescheduling event pattern trips the
// simulated-cycle budget with a structured *StallError instead of running
// forever (or until MaxEvents, billions of dispatches later).
func TestMaxCyclesStall(t *testing.T) {
	s := New()
	s.MaxCycles = 50_000
	tk := &ticker{s: s}
	s.AtTarget(1, tk, nil)
	s.Spawn("worker", func(th *Thread) { th.Park() })
	err := s.Run()
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if se.LimitCycles != 50_000 || se.NowCycles <= 50_000 {
		t.Fatalf("bad stall bounds: %+v", se)
	}
	if len(se.Threads) != 1 || se.Threads[0] != "worker (parked)" {
		t.Fatalf("bad live-thread report: %v", se.Threads)
	}
	if tk.fires == 0 {
		t.Fatal("ticker never ran")
	}
}

// TestQuiescenceStall: pure callback churn with no thread dispatch for a full
// window is reported as a stall even when the cycle budget is generous.
func TestQuiescenceStall(t *testing.T) {
	s := New()
	s.StallCheckCycles = 10_000
	tk := &ticker{s: s}
	s.AtTarget(1, tk, nil)
	s.Spawn("victim", func(th *Thread) {
		th.Delay(500) // some real progress first, then parked forever
		th.Park()
	})
	err := s.Run()
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if se.Reason != "no thread progress within quiescence window" {
		t.Fatalf("bad reason: %q", se.Reason)
	}
}

// TestQuiescenceTolerantOfProgress: a thread that keeps making progress under
// the same callback churn is not reported.
func TestQuiescenceTolerantOfProgress(t *testing.T) {
	s := New()
	s.StallCheckCycles = 10_000
	done := 0
	s.Spawn("worker", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Delay(1000)
			done++
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 100 {
		t.Fatalf("worker ran %d/100 steps", done)
	}
}

// TestOnStallDiagnostics: model-level context is attached to the error and
// rendered in its message.
func TestOnStallDiagnostics(t *testing.T) {
	s := New()
	s.MaxCycles = 1000
	tk := &ticker{s: s}
	s.AtTarget(1, tk, nil)
	s.Spawn("proc0", func(th *Thread) { th.Park() })
	s.OnStall = func() []string { return []string{"proc0: waiting on page 17"} }
	err := s.Run()
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if len(se.Diagnostics) != 1 || se.Diagnostics[0] != "proc0: waiting on page 17" {
		t.Fatalf("diagnostics not collected: %v", se.Diagnostics)
	}
	if want := "proc0: waiting on page 17"; !contains(err.Error(), want) {
		t.Fatalf("error message %q missing %q", err.Error(), want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFailAborts: Sim.Fail surfaces a structured model error through Run and
// tears the simulation down.
func TestFailAborts(t *testing.T) {
	s := New()
	want := fmt.Errorf("link 0->1 dead")
	s.Spawn("failer", func(th *Thread) {
		th.Delay(10)
		s.Fail(want)
		th.Delay(10) // never reached by Run's caller: failure wins first
	})
	s.Spawn("bystander", func(th *Thread) { th.Park() })
	if err := s.Run(); !errors.Is(err, want) {
		t.Fatalf("want %v, got %v", want, err)
	}
}

// TestFailFirstWins: the first failure is the one reported.
func TestFailFirstWins(t *testing.T) {
	s := New()
	first := fmt.Errorf("first")
	s.Spawn("failer", func(th *Thread) {
		s.Fail(first)
		s.Fail(fmt.Errorf("second"))
	})
	if err := s.Run(); !errors.Is(err, first) {
		t.Fatalf("want first failure, got %v", err)
	}
}

// TestAtTargetDispatch: typed events dispatch with their argument, in time
// order, without closures.
func TestAtTargetDispatch(t *testing.T) {
	s := New()
	var got []int
	c := &collector{out: &got}
	s.AtTarget(30, c, 3)
	s.AtTarget(10, c, 1)
	s.AtTarget(20, c, 2)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("bad dispatch order: %v", got)
	}
}

type collector struct{ out *[]int }

func (c *collector) HandleEvent(arg any) { *c.out = append(*c.out, arg.(int)) }

// TestAtTargetZeroAllocs pins the typed-event path to zero allocations per
// event: the event is a value in the recycled heap slice, and the
// pointer-receiver target plus a pre-boxed arg convert to their interfaces
// without allocating.
func TestAtTargetZeroAllocs(t *testing.T) {
	s := New()
	tk := &sink{}
	var arg any = tk // pre-boxed: pointer-in-interface conversion is free
	for i := 0; i < 256; i++ {
		s.AtTarget(Time(i), tk, arg)
	}
	for len(s.events) > 0 {
		s.events.pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.AtTarget(300, tk, arg)
		ev := s.events.pop()
		ev.target.HandleEvent(ev.arg)
	})
	if allocs != 0 {
		t.Errorf("AtTarget path allocates %.1f objects per event, want 0", allocs)
	}
}

// TestAtTargetOverflowPanics: a delay large enough to wrap the cycle counter
// must panic like scheduleThread does, not silently enqueue an
// event in the past. Regression test: AtTarget originally lacked the guard.
func TestAtTargetOverflowPanics(t *testing.T) {
	s := New()
	tk := &sink{}
	s.AtTarget(100, call(func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic from overflowing AtTarget delay")
			}
		}()
		s.AtTarget(^Time(0), tk, nil) // now+delay wraps below now
	}), nil)
	_ = s.Run()
}

type sink struct{ n int }

func (k *sink) HandleEvent(any) { k.n++ }

// BenchmarkEngineDeliverTarget measures the typed-event delivery path used by
// the network for packet arrivals and retransmit timers. The allocation
// report is the guardrail: 0 allocs/op, where the old closure-per-packet
// scheme paid one closure plus captures per event.
func BenchmarkEngineDeliverTarget(b *testing.B) {
	b.ReportAllocs()
	s := New()
	tk := &sink{}
	n := b.N
	s.Spawn("driver", func(th *Thread) {
		for i := 0; i < n; i++ {
			s.AtTarget(1, tk, nil)
			th.Delay(1)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if tk.n != n {
		b.Fatalf("delivered %d/%d", tk.n, n)
	}
}
