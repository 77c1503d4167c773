package engine

import "testing"

func TestStopReturnsNilWithLiveThreads(t *testing.T) {
	s := New()
	progressed := false
	s.Spawn("worker", func(th *Thread) {
		th.Delay(10)
		progressed = true
		s.Stop()
		th.Delay(1_000_000) // never completes: Stop ends the run first
		t.Error("thread resumed after Stop")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
	if !progressed {
		t.Fatal("thread never ran")
	}
	if s.Now() != 10 {
		t.Fatalf("stopped at %d, want 10", s.Now())
	}
}

func TestStopDiscardsRemainingEvents(t *testing.T) {
	s := New()
	fired := false
	s.AtTarget(5, call(func() { s.Stop() }), nil)
	s.AtTarget(50, call(func() { fired = true }), nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event after Stop still dispatched")
	}
}

func TestKilledThreadNeverResumes(t *testing.T) {
	s := New()
	var victim *Thread
	resumed := false
	victim = s.Spawn("victim", func(th *Thread) {
		th.Delay(100)
		resumed = true
	})
	s.AtTarget(10, call(func() { s.Kill(victim) }), nil)
	// A survivor keeps the run alive well past the victim's resume time.
	s.Spawn("survivor", func(th *Thread) { th.Delay(500) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("killed thread resumed")
	}
	if s.Now() != 500 {
		t.Fatalf("ended at %d, want 500", s.Now())
	}
}

func TestKilledParkedThreadIgnoresUnpark(t *testing.T) {
	s := New()
	var victim *Thread
	woke := false
	victim = s.Spawn("victim", func(th *Thread) {
		th.Park()
		woke = true
	})
	s.AtTarget(10, call(func() {
		s.Kill(victim)
		victim.Unpark() // already scheduled wakeups must be ignored too
	}), nil)
	s.Spawn("survivor", func(th *Thread) { th.Delay(100) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke {
		t.Fatal("killed parked thread woke up")
	}
}

func TestKillCurrentThreadPanics(t *testing.T) {
	s := New()
	s.Spawn("self", func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("Kill of the running thread did not panic")
			}
		}()
		s.Kill(th)
	})
	// The panic is recovered inside the thread body; the run completes.
	_ = s.Run()
}

func TestKillIsIdempotentAndNilSafe(t *testing.T) {
	s := New()
	v := s.Spawn("v", func(th *Thread) { th.Delay(100) })
	s.AtTarget(1, call(func() {
		s.Kill(nil)
		s.Kill(v)
		s.Kill(v)
	}), nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
