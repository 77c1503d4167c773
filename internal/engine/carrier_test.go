package engine

import (
	"errors"
	"runtime"
	"testing"
)

// TestSequentialSpawnsShareOneCarrier: threads that never overlap all run on
// the same pooled carrier. The pool is what keeps coroutine exits, and the
// race detector state each one leaks, to a few dozen per simulation.
func TestSequentialSpawnsShareOneCarrier(t *testing.T) {
	const n = 10_000
	s := New()
	ran, carriers := 0, 0
	var next func()
	next = func() {
		if ran == n {
			carriers = len(s.carriers)
			return
		}
		s.Spawn("short", func(th *Thread) {
			th.Delay(1)
			ran++
			s.At(0, next)
		})
	}
	next()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != n || carriers != 1 {
		t.Fatalf("%d threads ran on %d carriers, want %d on 1", ran, carriers, n)
	}
	// Each thread costs three events (first dispatch, Delay wakeup, the At
	// that spawns the next), and the counts survive teardown.
	if got, want := s.Counts(), (Counts{Events: 3 * n, Threads: n, Carriers: 1}); got != want {
		t.Fatalf("Counts() = %+v, want %+v", got, want)
	}
}

// TestTeardownNoGoroutineLeak checks that tearing a simulation down stops
// every carrier synchronously, whatever state its thread was left in: parked
// at a deadlock, killed while parked, spawned but never dispatched (on a
// fresh and on a reused carrier), or parking again in a deferred call while
// teardown unwinds it. The count may fall (an earlier test's goroutine can
// still be exiting when before is read) but must never rise.
func TestTeardownNoGoroutineLeak(t *testing.T) {
	scenarios := []struct {
		name  string
		build func(s *Sim)
	}{
		{"parked", func(s *Sim) {
			for j := 0; j < 4; j++ {
				s.Spawn("parked", func(th *Thread) { th.Park() })
			}
		}},
		{"killed", func(s *Sim) {
			victim := s.Spawn("victim", func(th *Thread) { th.Delay(100) })
			s.At(10, func() { s.Kill(victim) })
			s.Spawn("survivor", func(th *Thread) { th.Delay(500) })
		}},
		{"never dispatched", func(s *Sim) {
			s.Spawn("early", func(th *Thread) {})
			s.At(5, func() {
				s.Spawn("reused", func(*Thread) { t.Error("reused carrier ran its thread") })
				s.Spawn("fresh", func(*Thread) { t.Error("fresh carrier ran its thread") })
				s.Stop()
			})
		}},
		{"deferred park", func(s *Sim) {
			s.Spawn("unlocker", func(th *Thread) {
				defer th.Park()
				th.Park()
			})
		}},
	}
	before := runtime.NumGoroutine()
	for _, sc := range scenarios {
		for i := 0; i < 20; i++ {
			s := New()
			sc.build(s)
			_ = s.Run()
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%s: %d goroutines after Run, %d before", sc.name, after, before)
			}
		}
	}
}

// TestThreadPanicLeavesNoGoroutine: a panicking thread surfaces as a
// ThreadPanicError from Run, with no goroutine left behind for it or for the
// parked bystander, and an earlier Fail still wins over the panic.
func TestThreadPanicLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	s.Spawn("bystander", func(th *Thread) { th.Park() })
	s.Spawn("bomber", func(th *Thread) {
		th.Delay(10)
		panic("boom")
	})
	err := s.Run()
	var tp *ThreadPanicError
	if !errors.As(err, &tp) || tp.Thread != "bomber" || tp.Value != "boom" {
		t.Fatalf("want bomber's ThreadPanicError, got %v", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Run, %d before", after, before)
	}

	first := errors.New("first")
	s = New()
	s.Spawn("bomber", func(th *Thread) {
		s.Fail(first)
		panic("boom")
	})
	if err := s.Run(); err != first {
		t.Fatalf("want the earlier Fail, got %v", err)
	}
}
