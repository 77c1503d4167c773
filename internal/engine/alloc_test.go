package engine

import (
	"runtime"
	"testing"
)

// TestSchedulePathZeroAllocs pins the closure-free thread scheduling path to
// zero allocations per event once the queue has reached steady-state
// capacity: Delay/Unpark/Spawn dispatches are pure value pushes into the
// event heap's reused backing array.
func TestSchedulePathZeroAllocs(t *testing.T) {
	s := New()
	th := &Thread{sim: s, name: "probe"}
	// Grow the heap's backing array past what the loop below needs.
	for i := 0; i < 256; i++ {
		s.scheduleThread(Time(i)+2*longCycles, th, evResume)
	}
	for len(s.events) > 0 {
		s.events.pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		// One near and one far push, drained in order.
		at := s.now + 10
		s.scheduleThread(at, th, evResume)
		s.scheduleThread(at+longCycles, th, evUnpark)
		s.events.pop()
		s.events.pop()
	})
	if allocs != 0 {
		t.Errorf("schedule path allocates %.1f objects per push/pop pair, want 0", allocs)
	}
}

// TestNewAllocatesLittle bounds what one Sim costs before it runs: the event
// heap grows with the events queued, so New allocates no per-Sim slab.
func TestNewAllocatesLittle(t *testing.T) {
	const n, budget = 100, 16 << 10
	sims := make([]*Sim, n)
	var pre, post runtime.MemStats
	runtime.ReadMemStats(&pre)
	for i := range sims {
		sims[i] = New()
	}
	runtime.ReadMemStats(&post)
	if per := (post.TotalAlloc - pre.TotalAlloc) / n; per >= budget {
		t.Fatalf("New allocates %d bytes per Sim, want under %d", per, budget)
	}
}

// BenchmarkEngineDelay measures the full Delay round-trip (schedule, yield to
// the scheduler loop, dispatch, resume the carrier). Two delayers run in lock
// step, so each Delay finds the other's resume queued at its own cycle and
// can never resume in place; one op is one Delay. The allocation report is
// the guardrail: the schedule path must stay at 0 allocs/op.
func BenchmarkEngineDelay(b *testing.B) {
	b.ReportAllocs()
	s := New()
	for _, n := range []int{(b.N + 1) / 2, b.N / 2} {
		s.Spawn("delayer", func(th *Thread) {
			for i := 0; i < n; i++ {
				th.Delay(1)
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if c := s.Counts(); c.Switches != uint64(b.N)+2 {
		b.Fatalf("%d switches for %d Delays, want every Delay to switch", c.Switches, b.N)
	}
}

// BenchmarkEngineDelayInPlace measures a Delay that resumes in place: a lone
// delayer finds nothing queued before its resume, so it moves the clock
// without a queue push or a coroutine switch. 0 allocs/op, as above.
func BenchmarkEngineDelayInPlace(b *testing.B) {
	b.ReportAllocs()
	s := New()
	n := b.N
	s.Spawn("delayer", func(th *Thread) {
		for i := 0; i < n; i++ {
			th.Delay(1)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if c := s.Counts(); c.Switches != 1 {
		b.Fatalf("%d switches, want only the first dispatch", c.Switches)
	}
}

// BenchmarkEngineDo measures a transaction shaped like a bus line read, run
// by Thread.Do: hold a shared resource, wait, hold it again. Two threads
// contend for the resource, so phases wait in its queue and run in scheduler
// context; one op is one Do, which must park its thread at most once. 0
// allocs/op, as above: the program lives in the thread's carrier.
func BenchmarkEngineDo(b *testing.B) {
	b.ReportAllocs()
	s := New()
	r := NewResource(s, "bus")
	for _, n := range []int{(b.N + 1) / 2, b.N / 2} {
		s.Spawn("reader", func(th *Thread) {
			for i := 0; i < n; i++ {
				th.Do(Op{Res: r, Cycles: 8}, Op{Cycles: 28}, Op{Res: r, Cycles: 16})
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if c := s.Counts(); c.Switches > uint64(b.N)+2 {
		b.Fatalf("%d switches for %d Dos, want at most one per Do", c.Switches, b.N)
	}
}

// spaceTicker frees write-buffer space every period cycles while writers
// are left: it broadcasts space, waking every writer that waits on it.
type spaceTicker struct {
	s      *Sim
	space  *Cond
	period Time
	left   *int
}

func (k *spaceTicker) HandleEvent(any) {
	k.space.Broadcast()
	if *k.left > 0 {
		k.s.AtTarget(k.period, k, nil)
	}
}

// BenchmarkEngineDoWait measures a stall shaped like a processor's write to
// a full write buffer, run by Thread.Do: wait out the processor's lag, then
// wait on a condition for space. Two writers stall on one condition, which
// a ticker broadcasts, so the lag phase runs in scheduler context and the
// wait ends at an evUnpark; one op is one Do, which must park its thread at
// most once. 0 allocs/op, as above: the condition's waiter list keeps its
// capacity.
func BenchmarkEngineDoWait(b *testing.B) {
	b.ReportAllocs()
	s := New()
	space := NewCond(s)
	left := 2
	for _, n := range []int{(b.N + 1) / 2, b.N / 2} {
		s.Spawn("writer", func(th *Thread) {
			for i := 0; i < n; i++ {
				th.Do(Op{Cycles: 3}, Op{Wait: space})
			}
			left--
		})
	}
	s.AtTarget(10, &spaceTicker{s: s, space: space, period: 10, left: &left}, nil)
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if c := s.Counts(); c.Switches > uint64(b.N)+2 {
		b.Fatalf("%d switches for %d Dos, want at most one per Do", c.Switches, b.N)
	}
}

// drainService is a write-buffer-drain-shaped service for
// BenchmarkEngineService: each burst retires lines lines, each a bus write
// and an L2 hit, then schedules the service's next burst one cycle later,
// with the service itself as the event's target.
type drainService struct {
	t           *Thread
	bus         *Resource
	lines, left int
	bursts      int
}

// HandleEvent starts a burst.
func (d *drainService) HandleEvent(any) {
	d.left = d.lines
	d.t.Start(d, nil)
}

func (d *drainService) Continue(dst []Op) []Op {
	if d.left == 0 {
		if d.bursts--; d.bursts > 0 {
			d.t.sim.AtTarget(1, d, nil)
		}
		return dst
	}
	d.left--
	return append(dst, Op{Res: d.bus, Prio: 2, Cycles: 24}, Op{Cycles: 8, Then: d})
}

// BenchmarkEngineService measures a burst of a reusable service thread, run
// to its end: two drains contend for one bus, each burst retiring four
// lines as one program in scheduler context; one op is one burst. It never
// enters a coroutine, so it asserts 0 switches, and the thread and its
// program are made once, so 0 allocs/op, as above.
func BenchmarkEngineService(b *testing.B) {
	b.ReportAllocs()
	s := New()
	bus := NewResource(s, "bus")
	for _, n := range []int{(b.N + 1) / 2, b.N / 2} {
		d := &drainService{t: s.NewThread("drain"), bus: bus, lines: 4, bursts: n}
		if n > 0 {
			d.HandleEvent(nil)
		}
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if c := s.Counts(); c.Switches != 0 {
		b.Fatalf("%d switches for %d bursts, want none", c.Switches, b.N)
	}
}

// BenchmarkEngineUnpark measures a Park/Unpark ping-pong between two threads.
func BenchmarkEngineUnpark(b *testing.B) {
	b.ReportAllocs()
	s := New()
	n := b.N
	var ping, pong *Thread
	pong = s.Spawn("pong", func(th *Thread) {
		for i := 0; i < n; i++ {
			th.Park()
			ping.Unpark()
		}
	})
	ping = s.Spawn("ping", func(th *Thread) {
		for i := 0; i < n; i++ {
			pong.Unpark()
			th.Park()
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
