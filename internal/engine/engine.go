//go:build go1.23

// Package engine provides the deterministic discrete-event simulation core
// that the SVM cluster model is built on.
//
// The engine combines a timing-wheel event queue with cooperative threads.
// Each simulated processor (and each protocol handler) is a Thread, and each
// Thread runs on a carrier: a runtime coroutine made by iter.Pull. Only the
// scheduler loop in Run resumes a carrier, and a running thread only ever
// yields back to that loop, so at most one thread runs at any instant and
// every event is dispatched by the loop. Event ties at the same cycle are
// broken by a monotonically increasing sequence number, so a given program
// produces a bit-identical schedule on every run.
//
// A coroutine switch does not enter the Go scheduler, which makes a
// simulated context switch several times cheaper than a goroutine channel
// handoff. The price is scheduler latency: a running simulation never gives
// up its P at a switch, so other goroutines in the process wait longer for
// one.
//
// Carriers are pooled per Sim: a finished thread puts its carrier back for
// the next Spawn, and teardown stops every carrier the Sim made. Besides
// saving a coroutine per thread, the pool bounds coroutine exits to a few
// dozen per simulation. That matters under the race detector: Go 1.24 never
// frees the race state of an exited coroutine (about 5 KB each), and one
// coroutine per thread ran `go test -race ./internal/exp/` out of memory.
package engine

import (
	"errors"
	"fmt"
	"iter"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Time is simulated time in processor clock cycles.
type Time = uint64

// Forever is a sentinel "infinitely far in the future" time.
//
//svmlint:ignore units Forever is a sentinel, not a quantity in any unit
const Forever Time = ^Time(0)

// evKind discriminates what an event does at dispatch. Thread events carry a
// typed resume target instead of a closure so the hot scheduling paths
// (Delay, Unpark, Spawn) allocate nothing per event.
type evKind uint8

const (
	// evCall runs fn in scheduler context.
	evCall evKind = iota
	// evResume transfers control to th (Delay wakeup, first Spawn dispatch).
	evResume
	// evUnpark transfers control to th, asserting it is actually parked.
	evUnpark
	// evTarget calls target.HandleEvent(arg) in scheduler context. Like the
	// thread kinds it is closure-free: the target is a long-lived model
	// object (e.g. a network interface) and arg is a pointer it already
	// owns, so scheduling allocates nothing per event.
	evTarget
)

// EventTarget receives typed callback events scheduled with AtTarget. The
// handler runs in scheduler context (no current thread) and must not block.
type EventTarget interface {
	HandleEvent(arg any)
}

type event struct {
	at     Time
	seq    uint64
	th     *Thread
	fn     func()
	target EventTarget
	arg    any
	kind   evKind
}

// Sim is a discrete-event simulator instance. It is not safe for concurrent
// use from outside; all model code runs under the simulator's own cooperative
// scheduling.
type Sim struct {
	now     Time
	seq     uint64
	events  eventQueue
	current *Thread
	live    map[*Thread]struct{}
	// carriers lists every carrier the Sim made, for teardown; idle holds
	// the ones free for the next Spawn.
	carriers []*carrier
	idle     []*carrier
	dead     bool
	stopped  bool  // set by Stop; Run ends after the current dispatch
	failure  error // set when a thread panics; Run stops and reports it

	// dispatched counts events dispatched so far; spawned and made count
	// threads spawned and carriers made (teardown drops carriers, not made).
	dispatched, spawned, made uint64

	// MaxEvents bounds the number of dispatched events as a livelock guard.
	// Zero means the default (see Run).
	MaxEvents uint64

	// MaxCycles bounds simulated time (zero = unbounded). When the next
	// event lies beyond the budget, Run stops with a *StallError instead of
	// spinning: a retransmit storm or any other self-rescheduling pattern
	// keeps the event queue non-empty forever, which MaxEvents only catches
	// after billions of dispatches.
	MaxCycles Time

	// StallCheckCycles enables the quiescence watchdog (zero = off): if a
	// window of this many simulated cycles passes in which no thread is
	// dispatched while live threads exist, the model is churning on pure
	// callback events (e.g. timers re-arming each other) without making
	// application progress, and Run stops with a *StallError.
	StallCheckCycles Time

	// OnStall, when set, contributes model-level diagnostic lines (e.g.
	// per-processor protocol breadcrumbs) to the StallError Run reports.
	OnStall func() []string

	// lastThreadAt is the time of the most recent thread dispatch, for the
	// quiescence watchdog.
	lastThreadAt Time
}

// New creates an empty simulator at time zero.
func New() *Sim {
	s := &Sim{live: make(map[*Thread]struct{})}
	s.events.init()
	return s
}

// Now returns the current simulated time in cycles.
func (s *Sim) Now() Time { return s.now }

// Counts are a simulation's machine-independent work counters. They follow
// from the model's schedule alone, so they repeat exactly from run to run
// and from host to host: a host-time change with unchanged counts is the
// host's, not the model's.
type Counts struct {
	Events   uint64 // events dispatched
	Threads  uint64 // threads spawned
	Carriers uint64 // coroutine carriers made (the pool's high-water mark)
}

// Counts returns the work counters so far; they stay readable after Run.
func (s *Sim) Counts() Counts {
	return Counts{Events: s.dispatched, Threads: s.spawned, Carriers: s.made}
}

// Current returns the thread that is executing right now, or nil when the
// scheduler is running a plain callback event.
func (s *Sim) Current() *Thread { return s.current }

// At schedules fn to run after delay cycles. fn runs in scheduler context
// (no current thread); it must not block.
func (s *Sim) At(delay Time, fn func()) {
	s.schedule(s.now+delay, fn)
}

func (s *Sim) schedule(at Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("engine: scheduling into the past (at=%d now=%d)", at, s.now))
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, fn: fn, kind: evCall})
}

// AtTarget schedules target.HandleEvent(arg) to run after delay cycles, in
// scheduler context. It is the closure-free counterpart of At for per-event
// hot paths: the event is a value in the queue's recycled backing storage, so
// once the queue has reached steady-state capacity the call allocates
// nothing.
func (s *Sim) AtTarget(delay Time, target EventTarget, arg any) {
	at := s.now + delay
	if at < s.now {
		panic(fmt.Sprintf("engine: scheduling into the past (at=%d now=%d)", at, s.now))
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, target: target, arg: arg, kind: evTarget})
}

// Fail aborts the run with err after the current event finishes dispatching:
// Run tears the simulation down and returns err. Model code uses it to
// surface structured failures (e.g. a link exceeding its retry budget)
// instead of panicking or hanging. The first failure wins; later calls are
// ignored.
func (s *Sim) Fail(err error) {
	if s.failure == nil && err != nil {
		s.failure = err
	}
}

// Stop requests an orderly end of the run: Run returns nil after the current
// event finishes dispatching, regardless of remaining events or live threads.
// Model code uses it when the simulation can no longer drain naturally — e.g.
// periodic timers that re-arm forever, or threads belonging to a crashed node
// that will never resume — but the run itself has completed its useful work.
func (s *Sim) Stop() { s.stopped = true }

// Kill removes thread t from the simulation: it never runs again, pending
// events targeting it are ignored at dispatch, and its carrier unwinds it at
// teardown. It models the threads of a crash-stopped node. Kill must not be
// called on the currently running thread; resources the thread holds are NOT
// released (a crashed node's local resources wedge with it, which is the
// intended crash-stop semantics — killed threads must not hold resources
// shared with surviving nodes).
func (s *Sim) Kill(t *Thread) {
	if t == nil || t.done {
		return
	}
	if t == s.current {
		panic(fmt.Sprintf("engine: Kill of the running thread %q", t.name))
	}
	t.done = true
	delete(s.live, t)
}

// scheduleThread enqueues a closure-free thread event. Events are values in
// the queue's recycled backing storage, so this path performs zero
// allocations once the queue has reached its steady-state capacity.
func (s *Sim) scheduleThread(at Time, t *Thread, kind evKind) {
	if at < s.now {
		panic(fmt.Sprintf("engine: scheduling into the past (at=%d now=%d)", at, s.now))
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, th: t, kind: kind})
}

// dispatch executes one popped event at the already-advanced clock.
func (s *Sim) dispatch(ev event) {
	switch ev.kind {
	case evCall:
		ev.fn()
	case evTarget:
		ev.target.HandleEvent(ev.arg)
	case evResume:
		s.lastThreadAt = ev.at
		s.switchTo(ev.th)
	case evUnpark:
		s.lastThreadAt = ev.at
		t := ev.th
		if t.done {
			return
		}
		if !t.parked {
			panic(fmt.Sprintf("engine: Unpark of runnable thread %q", t.name))
		}
		s.switchTo(t)
	}
}

// errUnwind is panicked inside parked threads when the simulation tears down
// so their carriers unwind instead of leaking.
var errUnwind = errors.New("engine: simulation torn down")

// Thread is a cooperative simulated thread of control (a simulated processor
// context or a protocol handler context). Every Spawn makes a fresh Thread;
// only its carrier is reused, so a stale event for a finished or killed
// thread still finds done set and can never wake the carrier's next thread.
type Thread struct {
	sim     *Sim
	name    string
	carrier *carrier
	parked  bool
	done    bool
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Sim returns the simulator this thread belongs to.
func (t *Thread) Sim() *Sim { return t.sim }

// carrier is a pooled runtime coroutine that runs thread bodies one at a
// time. The scheduler loop resumes it with next; the running thread suspends
// it with yield.
type carrier struct {
	sim   *Sim
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	th    *Thread         // the thread assigned by Spawn
	fn    func(t *Thread) // th's body, cleared once it starts
}

// Spawn creates a thread named name that will begin executing fn at the
// current simulated time. When fn returns the thread terminates.
func (s *Sim) Spawn(name string, fn func(t *Thread)) *Thread {
	var c *carrier
	if n := len(s.idle); n > 0 {
		c = s.idle[n-1]
		s.idle = s.idle[:n-1]
	} else {
		c = &carrier{sim: s}
		c.next, c.stop = iter.Pull(c.loop)
		s.carriers = append(s.carriers, c)
		s.made++
	}
	s.spawned++
	t := &Thread{sim: s, name: name, carrier: c}
	c.th, c.fn = t, fn
	s.live[t] = struct{}{}
	s.scheduleThread(s.now, t, evResume)
	return t
}

// loop is the carrier's coroutine body: run the assigned thread, go back to
// the idle pool, and wait in yield for the next assignment. It returns once
// teardown stops the carrier.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run()
		c.sim.idle = append(c.sim.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the assigned thread's body. It recovers every panic, so none
// crosses the coroutine boundary into the scheduler loop: errUnwind (also
// when a deferred call parks again while unwinding) is orderly teardown, and
// any other panic becomes the run's failure, the first one winning.
func (c *carrier) run() {
	s, t, fn := c.sim, c.th, c.fn
	c.th, c.fn = nil, nil
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || !errors.Is(err, errUnwind) {
				s.Fail(&ThreadPanicError{Thread: t.name, Value: r, Stack: string(stackTrace())})
			}
		}
		t.done = true
		delete(s.live, t)
	}()
	fn(t)
}

// switchTo resumes t on its carrier and returns once t parks or finishes.
func (s *Sim) switchTo(t *Thread) {
	if t.done {
		return
	}
	s.current = t
	t.parked = false
	t.carrier.next()
	s.current = nil
}

// park suspends the calling thread until an event resumes it. If teardown
// stops the carrier instead, yield reports false and the thread unwinds.
func (t *Thread) park() {
	t.parked = true
	if !t.carrier.yield(struct{}{}) {
		panic(errUnwind)
	}
}

// Delay advances the thread's local view of time by n cycles: the thread is
// suspended and resumes once the simulation clock has moved n cycles forward.
func (t *Thread) Delay(n Time) {
	s := t.sim
	s.scheduleThread(s.now+n, t, evResume)
	t.park()
}

// Park suspends the thread indefinitely; a matching Unpark (from a callback
// or another thread) resumes it at the then-current time.
func (t *Thread) Park() { t.park() }

// Unpark schedules the thread to resume at the current simulated time. It
// may be called from callbacks or other threads. Unparking a thread that is
// not parked is a model bug and panics at dispatch.
func (t *Thread) Unpark() {
	t.sim.scheduleThread(t.sim.now, t, evUnpark)
}

// ThreadPanicError reports a panic inside a simulated thread.
type ThreadPanicError struct {
	Thread string
	Value  any
	Stack  string
}

func (e *ThreadPanicError) Error() string {
	return fmt.Sprintf("engine: thread %q panicked: %v", e.Thread, e.Value)
}

func stackTrace() []byte {
	buf := make([]byte, 16<<10)
	n := runtime.Stack(buf, false)
	return buf[:n]
}

// DeadlockError reports that the event queue drained while threads were
// still parked.
type DeadlockError struct {
	NowCycles Time
	Threads   []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("engine: deadlock at cycle %d; parked threads: %v", e.NowCycles, e.Threads)
}

// LivelockError reports that the event budget was exhausted.
type LivelockError struct {
	NowCycles Time
	Events    uint64
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("engine: event budget of %d exhausted at cycle %d (livelock?)", e.Events, e.NowCycles)
}

// StallError reports that the progress watchdog fired: the simulated-cycle
// budget was exceeded, or no thread made progress for a full quiescence
// window, while the event queue stayed non-empty (the livelock shape a
// drained-queue DeadlockError cannot see). Threads lists the still-live
// simulated threads; Diagnostics carries model-level per-thread context from
// Sim.OnStall (e.g. each processor's last blocking protocol operation).
type StallError struct {
	NowCycles   Time
	LimitCycles Time
	Events      uint64
	Reason      string
	Threads     []string
	Diagnostics []string
}

func (e *StallError) Error() string {
	msg := fmt.Sprintf("engine: stalled at cycle %d after %d events (%s); live threads: %v",
		e.NowCycles, e.Events, e.Reason, e.Threads)
	if len(e.Diagnostics) > 0 {
		msg += "; " + strings.Join(e.Diagnostics, "; ")
	}
	return msg
}

// liveThreadNames returns the names of live threads, sorted for determinism.
func (s *Sim) liveThreadNames() []string {
	names := make([]string, 0, len(s.live))
	for t := range s.live {
		if t.parked {
			names = append(names, t.name+" (parked)")
		} else {
			names = append(names, t.name)
		}
	}
	sort.Strings(names)
	return names
}

// stall builds a StallError, collects diagnostics, and tears down.
func (s *Sim) stall(at, limit Time, events uint64, reason string) *StallError {
	e := &StallError{NowCycles: at, LimitCycles: limit, Events: events,
		Reason: reason, Threads: s.liveThreadNames()}
	if s.OnStall != nil {
		e.Diagnostics = s.OnStall()
	}
	s.teardown()
	return e
}

// Run dispatches events until the queue drains. It returns nil when all
// spawned threads have terminated, a *DeadlockError if threads remain parked,
// or a *LivelockError if the event budget is exhausted.
func (s *Sim) Run() error {
	if s.dead {
		return errors.New("engine: Run on a torn-down simulator")
	}
	limit := s.MaxEvents
	if limit == 0 {
		limit = 50_000_000_000
	}
	for s.events.size > 0 {
		if s.dispatched >= limit {
			s.teardown()
			return &LivelockError{NowCycles: s.now, Events: s.dispatched}
		}
		ev := s.events.peek()
		if at := ev.at; at != s.now {
			// The watchdog checks run once per simulated cycle, not once per
			// event: they depend only on the event's cycle, so every
			// same-cycle event after the first passes them by construction.
			if s.MaxCycles > 0 && at > s.MaxCycles {
				return s.stall(at, s.MaxCycles, s.dispatched, "simulated-cycle budget exceeded")
			}
			if s.StallCheckCycles > 0 && len(s.live) > 0 &&
				at > s.lastThreadAt && at-s.lastThreadAt > s.StallCheckCycles {
				return s.stall(at, s.StallCheckCycles, s.dispatched, "no thread progress within quiescence window")
			}
			s.now = at
		}
		e := *ev
		s.events.popHead()
		s.dispatched++
		s.dispatch(e)
		if s.failure != nil {
			err := s.failure
			s.teardown()
			return err
		}
		if s.stopped {
			s.teardown()
			return nil
		}
	}
	if len(s.live) > 0 {
		names := make([]string, 0, len(s.live))
		for t := range s.live {
			names = append(names, t.name)
		}
		sort.Strings(names)
		err := &DeadlockError{NowCycles: s.now, Threads: names}
		if os.Getenv("SVMSIM_DEADLOCK_STACKS") != "" {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			fmt.Fprintf(os.Stderr, "=== deadlock goroutine stacks ===\n%s\n", buf[:n])
		}
		s.teardown()
		return err
	}
	s.teardown()
	return nil
}

// teardown stops every carrier the Sim made. Stopping is synchronous: a
// carrier parked in a thread unwinds it before stop returns, and an idle or
// never-started carrier just exits. Indexing (not ranging) also reaches a
// carrier that an unwinding thread's deferred call makes with Spawn.
func (s *Sim) teardown() {
	if s.dead {
		return
	}
	s.dead = true
	for i := 0; i < len(s.carriers); i++ {
		s.carriers[i].stop()
	}
	s.carriers, s.idle = nil, nil
}
