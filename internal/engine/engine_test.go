package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// call adapts a closure to an EventTarget, so a test can schedule it with
// AtTarget.
type call func()

func (c call) HandleEvent(any) { c() }

// TestTimeIsDefinedType guards the unit of simulated time. Time is a defined
// type, not an alias of uint64, so the compiler rejects cycles mixed with
// bytes or plain integers unless the code converts them. No analyzer checks
// the unit, so making Time an alias must fail here.
func TestTimeIsDefinedType(t *testing.T) {
	if reflect.TypeOf(Time(0)) == reflect.TypeOf(uint64(0)) {
		t.Fatal("engine.Time is an alias of uint64; it must be a defined type (type Time uint64)")
	}
}

func TestCallbackOrdering(t *testing.T) {
	s := New()
	var got []int
	s.AtTarget(30, call(func() { got = append(got, 3) }), nil)
	s.AtTarget(10, call(func() { got = append(got, 1) }), nil)
	s.AtTarget(20, call(func() { got = append(got, 2) }), nil)
	s.AtTarget(10, call(func() { got = append(got, 11) }), nil) // same time: FIFO by seq
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("final time %d, want 30", s.Now())
	}
}

func TestThreadDelayAdvancesTime(t *testing.T) {
	s := New()
	var seen []Time
	s.Spawn("worker", func(th *Thread) {
		seen = append(seen, s.Now())
		th.Delay(100)
		seen = append(seen, s.Now())
		th.Delay(50)
		seen = append(seen, s.Now())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 100, 150}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen %v want %v", seen, want)
		}
	}
}

func TestTwoThreadsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var log []string
		s.Spawn("a", func(th *Thread) {
			for i := 0; i < 3; i++ {
				log = append(log, "a")
				th.Delay(10)
			}
		})
		s.Spawn("b", func(th *Thread) {
			for i := 0; i < 3; i++ {
				log = append(log, "b")
				th.Delay(10)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic schedule: %v vs %v", first, again)
			}
		}
	}
	// Spawn order must also be respected at equal times.
	if first[0] != "a" || first[1] != "b" {
		t.Fatalf("expected a then b at t=0, got %v", first)
	}
}

func TestParkUnpark(t *testing.T) {
	s := New()
	var woke Time
	var th *Thread
	th = s.Spawn("sleeper", func(tt *Thread) {
		tt.Park()
		woke = s.Now()
	})
	s.AtTarget(500, call(func() { th.Unpark() }), nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 500 {
		t.Fatalf("woke at %d, want 500", woke)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New()
	s.Spawn("stuck", func(th *Thread) { th.Park() })
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Threads) != 1 || dl.Threads[0] != "stuck" {
		t.Fatalf("deadlock threads = %v", dl.Threads)
	}
}

func TestLivelockGuard(t *testing.T) {
	s := New()
	s.MaxEvents = 100
	var spin func()
	spin = func() { s.AtTarget(0, call(spin), nil) }
	s.AtTarget(0, call(spin), nil)
	err := s.Run()
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("want LivelockError, got %v", err)
	}
}

func TestCondFIFOAndBroadcast(t *testing.T) {
	s := New()
	c := NewCond(s)
	var order []string
	mk := func(name string) {
		s.Spawn(name, func(th *Thread) {
			c.Wait(th)
			order = append(order, name)
		})
	}
	mk("first")
	mk("second")
	mk("third")
	s.AtTarget(10, call(func() { c.Signal() }), nil)
	s.AtTarget(20, call(func() { c.Broadcast() }), nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v want %v", order, want)
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	s := New()
	r := NewResource(s, "bus")
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Spawn("user", func(th *Thread) {
			th.Do(Op{Res: r, Cycles: 100})
			ends = append(ends, s.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends %v want %v", ends, want)
		}
	}
	if r.BusyCycles != 300 {
		t.Fatalf("BusyCycles = %d, want 300", r.BusyCycles)
	}
}

func TestResourcePriorityArbitration(t *testing.T) {
	s := New()
	r := NewResource(s, "bus")
	var order []string
	// Holder keeps the bus until t=100; three waiters queue with different
	// priorities; the lowest number must win regardless of arrival order.
	s.Spawn("holder", func(th *Thread) {
		r.Acquire(th, 0)
		th.Delay(100)
		r.Release()
	})
	mk := func(name string, prio int, arrive Time) {
		s.Spawn(name, func(th *Thread) {
			th.Delay(arrive)
			r.Acquire(th, prio)
			order = append(order, name)
			th.Delay(10)
			r.Release()
		})
	}
	mk("low", 5, 10)
	mk("high", 1, 20)
	mk("mid", 3, 30)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"high", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v want %v", order, want)
		}
	}
}

func TestResourceTieBreaksFIFO(t *testing.T) {
	s := New()
	r := NewResource(s, "bus")
	var order []int
	s.Spawn("holder", func(th *Thread) {
		r.Acquire(th, 0)
		th.Delay(100)
		r.Release()
	})
	for i := 0; i < 4; i++ {
		idx := i
		s.Spawn("w", func(th *Thread) {
			th.Delay(Time(idx + 1))
			r.Acquire(th, 2)
			order = append(order, idx)
			r.Release()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order %v, want FIFO", order)
		}
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	s := New()
	s.AtTarget(100, call(func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into past")
			}
		}()
		s.scheduleThread(50, &Thread{sim: s, name: "probe"}, evResume)
	}), nil)
	_ = s.Run()
}

// TestHeapPropertyOrdering drives the event heap end to end (through Sim)
// with random batches and checks events always fire in nondecreasing
// (time, seq) order; TestWheelPropertyOrdering checks the heap directly
// against a sorted reference queue.
func TestHeapPropertyOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 400 {
			raw = raw[:400]
		}
		s := New()
		var fired []Time
		for _, d := range raw {
			at := Time(d)
			s.AtTarget(at, call(func() { fired = append(fired, at) }), nil)
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		sorted := append([]uint16(nil), raw...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != Time(sorted[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestResourcePropertyNoOverlap checks under random workloads that a
// unit-capacity resource is never held by two threads at once and that the
// busy-time accounting matches the sum of holds.
func TestResourcePropertyNoOverlap(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		users := int(n%20) + 2
		s := New()
		r := NewResource(s, "res")
		inUse := 0
		ok := true
		var total Time
		for i := 0; i < users; i++ {
			arrive := Time(rng.Intn(500))
			hold := Time(rng.Intn(50) + 1)
			prio := rng.Intn(3)
			total += hold
			s.Spawn("u", func(th *Thread) {
				th.Delay(arrive)
				r.Acquire(th, prio)
				inUse++
				if inUse != 1 {
					ok = false
				}
				th.Delay(hold)
				inUse--
				r.Release()
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok && r.BusyCycles == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnFromThread(t *testing.T) {
	s := New()
	var childRan Time
	s.Spawn("parent", func(th *Thread) {
		th.Delay(10)
		s.Spawn("child", func(ch *Thread) {
			ch.Delay(5)
			childRan = s.Now()
		})
		th.Delay(100)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childRan != 15 {
		t.Fatalf("child ran at %d, want 15", childRan)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Time {
		s := New()
		r := NewResource(s, "bus")
		c := NewCond(s)
		for i := 0; i < 8; i++ {
			d := Time(i * 7 % 5)
			s.Spawn("w", func(th *Thread) {
				th.Delay(d)
				th.Do(Op{Res: r, Prio: int(d) % 2, Cycles: 13})
				c.Signal()
			})
		}
		s.Spawn("waiter", func(th *Thread) {
			for i := 0; i < 8; i++ {
				c.Wait(th)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if run() != first {
			t.Fatal("nondeterministic end time")
		}
	}
}

func TestThreadPanicBecomesError(t *testing.T) {
	s := New()
	s.Spawn("bomber", func(th *Thread) {
		th.Delay(10)
		panic("boom")
	})
	s.Spawn("bystander", func(th *Thread) {
		th.Delay(1000)
	})
	err := s.Run()
	var tp *ThreadPanicError
	if !errors.As(err, &tp) {
		t.Fatalf("want ThreadPanicError, got %v", err)
	}
	if tp.Thread != "bomber" || tp.Value != "boom" {
		t.Fatalf("bad panic report: %+v", tp)
	}
	if tp.Stack == "" {
		t.Fatal("missing stack")
	}
}

func TestRunAfterTeardownFails(t *testing.T) {
	s := New()
	s.Spawn("w", func(th *Thread) {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("second Run must fail on torn-down simulator")
	}
}

func TestResourceUtilizationAccounting(t *testing.T) {
	s := New()
	r := NewResource(s, "bus")
	s.Spawn("u1", func(th *Thread) { th.Do(Op{Res: r, Cycles: 40}) })
	s.Spawn("u2", func(th *Thread) {
		th.Delay(100)
		th.Do(Op{Res: r, Cycles: 60})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r.BusyCycles != 100 {
		t.Fatalf("BusyCycles=%d want 100", r.BusyCycles)
	}
	if s.Now() != 160 {
		t.Fatalf("end=%d want 160", s.Now())
	}
}
