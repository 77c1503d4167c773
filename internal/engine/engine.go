//go:build go1.23

// Package engine provides the deterministic discrete-event simulation core
// that the SVM cluster model is built on.
//
// The engine combines an event heap ordered by (time, seq) with cooperative
// threads. Each simulated processor (and each protocol handler) is a Thread,
// and each Thread runs on a carrier: a runtime coroutine made by iter.Pull.
// Only the scheduler loop in Run resumes a carrier, and a running thread only
// ever yields back to that loop, so at most one thread runs at any instant.
// Event ties at the same cycle are broken by a monotonically increasing
// sequence number, so a given program produces a bit-identical schedule on
// every run.
//
// The loop dispatches every event except one: a thread resume (a Delay, or
// the end of a Do phase) that would be the loop's next dispatch anyway
// happens in place. Every queued event then lies strictly after the resume
// time, so the clock just moves, and the resume takes the same seq and counts
// the same dispatch. It falls back to the queue when Fail or Stop was called,
// the event budget is spent, MaxCycles or StallCheckCycles would fire, or the
// resume time overflows. Counts.Switches counts the coroutine switches that
// remain.
//
// A hardware transaction (a bus read, an NI pipeline, a write-buffer drain, a
// processor's stall) is a program of phases that Thread.Do runs: acquire a
// resource, hold it and release it, acquire it and keep it, wait on a
// condition, or just wait. Do parks the thread at most once. Phases run on
// the thread while each resume may happen in place; from the first phase
// that must wait, the rest run as the thread's own events in scheduler
// context, taking the seqs and dispatches the equivalent Acquire, Delay,
// Release and Cond.Wait calls would, and the last one switches back into the
// thread.
//
// A thread can also start with a program (Thread.Start): its first dispatch
// runs the program in scheduler context, and it enters a coroutine only for a
// body that follows the program. A long-lived model object (an NI side, a
// write buffer) owns one such thread, made once with NewThread and started
// once per burst of work; a burst that never blocks runs without a carrier
// or a switch.
//
// A coroutine switch does not enter the Go scheduler, which makes a
// simulated context switch several times cheaper than a goroutine channel
// handoff. The price is scheduler latency: a running simulation never gives
// up its P at a switch, so other goroutines in the process wait longer for
// one.
//
// Carriers are pooled per Sim: a finished thread puts its carrier back for
// the next thread that needs one, and teardown stops every carrier the Sim
// made. Besides saving a coroutine per thread, the pool bounds coroutine
// exits to a few dozen per simulation. That matters under the race
// detector: Go 1.24 never frees the race state of an exited coroutine (about
// 5 KB each), and one coroutine per thread ran `go test -race
// ./internal/exp/` out of memory.
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
type Time uint64

// evKind discriminates what an event does at dispatch. No event carries a
// closure: thread events name the thread to resume and callback events a
// typed target, so every scheduling path allocates nothing per event.
type evKind uint8

const (
	// evResume transfers control to th (Delay wakeup, first dispatch). At the
	// first dispatch of a thread started with a program, it runs the
	// program in scheduler context first.
	evResume evKind = iota
	// evUnpark transfers control to th, asserting it is actually parked. When
	// th is queued for a resource or a condition inside a Do program, it is
	// the grant or the wakeup: the program goes on in scheduler context.
	evUnpark
	// evPhase ends the current phase of th's Do program; the program goes on
	// in scheduler context.
	evPhase
	// evTarget calls target.HandleEvent(arg) in scheduler context. The
	// target is a long-lived model object (e.g. a network interface) and arg
	// is a pointer it already owns, so scheduling allocates nothing per
	// event.
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
	events  eventHeap
	current *Thread
	live    map[*Thread]struct{}
	// carriers lists every carrier the Sim made, for teardown; idle holds
	// the ones free for the next Spawn.
	carriers []*carrier
	idle     []*carrier
	dead     bool
	stopped  bool  // set by Stop; Run ends after the current dispatch
	failure  error // set when a thread panics; Run stops and reports it

	// dispatched counts events dispatched so far, switches the coroutine
	// switches into threads, and created and made the threads created and
	// carriers made (teardown drops carriers, not made).
	dispatched, switches, created, made uint64

	// MaxEvents bounds the number of dispatched events as a livelock guard.
	// Zero means the default (see Run).
	MaxEvents uint64
	// limit is the event budget Run enforces, resolved from MaxEvents.
	limit uint64

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
	return &Sim{live: make(map[*Thread]struct{})}
}

// Now returns the current simulated time in cycles.
func (s *Sim) Now() Time { return s.now }

// Counts are a simulation's machine-independent work counters. They follow
// from the model's schedule alone, so they repeat exactly from run to run
// and from host to host: a host-time change with unchanged counts is the
// host's, not the model's.
type Counts struct {
	Events   uint64 // events dispatched, in-place Delay resumes included
	Switches uint64 // coroutine switches into a thread
	Threads  uint64 // threads created; a reusable thread counts once
	Carriers uint64 // coroutine carriers made (the pool's high-water mark)
}

// Counts returns the work counters so far; they stay readable after Run.
func (s *Sim) Counts() Counts {
	return Counts{Events: s.dispatched, Switches: s.switches, Threads: s.created, Carriers: s.made}
}

// AtTarget schedules target.HandleEvent(arg) to run after delay cycles, in
// scheduler context (no current thread). It is the one way to run model code
// at a later cycle: wire flights, retransmit timers, heartbeat ticks and
// crash events all use it. The event is a value in the queue's recycled
// backing storage, so once the queue has reached steady-state capacity the
// call allocates nothing.
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
// shared with surviving nodes). A killed thread must not be started again:
// events of its last burst may still be queued.
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

// scheduleThread enqueues a thread event at absolute cycle at. Events are
// values in the queue's recycled backing storage, so this path performs zero
// allocations once the queue has reached its steady-state capacity.
func (s *Sim) scheduleThread(at Time, t *Thread, kind evKind) {
	if at < s.now {
		panic(fmt.Sprintf("engine: scheduling into the past (at=%d now=%d)", at, s.now))
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, th: t, kind: kind})
}

// dispatch executes one popped event at the already-advanced clock. A thread
// event resumes the thread's carrier and returns once the thread parks or
// finishes. For a thread inside a program it first runs the program on; once
// the program ends, the thread resumes its carrier, enters one to run its
// body, or, with no body, ends.
func (s *Sim) dispatch(ev event) {
	if ev.kind == evTarget {
		ev.target.HandleEvent(ev.arg)
		return
	}
	s.lastThreadAt = ev.at
	t := ev.th
	if t.done {
		return
	}
	switch p := t.prog; ev.kind {
	case evResume:
		if p.at == atFirst {
			p.at = atEnd
			if !s.step(t, p) {
				t.parked = true
				return
			}
		}
	case evUnpark:
		if !t.parked {
			panic(fmt.Sprintf("engine: Unpark of runnable thread %q", t.name))
		}
		if p.at == atEnd {
			panic(fmt.Sprintf("engine: Unpark of thread %q inside a Do phase", t.name))
		}
		if p.at == atQueued && !s.step(t, p) {
			return
		}
	case evPhase:
		if !s.step(t, p) {
			return
		}
	}
	if t.carrier == nil {
		if t.fn == nil {
			s.finish(t)
			return
		}
		s.assign(t)
	}
	s.current = t
	t.parked = false
	s.switches++
	t.carrier.next()
	s.current = nil
}

// errUnwind is panicked inside parked threads when the simulation tears down
// so their carriers unwind instead of leaking.
var errUnwind = errors.New("engine: simulation torn down")

// Thread is a cooperative simulated thread of control (a simulated processor
// context, an interrupt handler context, or the service thread of an NI side
// or a write buffer). Every Spawn makes a fresh Thread; only its carrier is
// reused, so a stale event for a finished or killed thread still finds done
// set and can never wake the carrier's next thread. A thread made with
// NewThread (a service thread, or a handler thread that serves one request
// after another) may be started again once a burst ends: the thread waits
// for one event at a time, so every event of a burst is dispatched before
// the burst ends, and none is left to reach the next. A burst that never
// ends, parked for good or killed, leaves the thread to its owner, which
// must not start it again.
type Thread struct {
	sim     *Sim
	name    string
	carrier *carrier        // the coroutine running fn, or nil
	prog    *program        // the thread's program: its carrier's, or own
	own     *program        // a program of its own, for starts without a carrier
	fn      func(t *Thread) // the body, run on a carrier once the program ends
	parked  bool
	done    bool // not running: never started, ended or killed
}

// carrier is a pooled runtime coroutine that runs thread bodies one at a
// time. The scheduler loop resumes it with next; the running thread suspends
// it with yield.
type carrier struct {
	sim   *Sim
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	th    *Thread // the assigned thread, cleared once its body starts
	prog  program // the program of a thread that starts on this carrier
}

// Spawn creates a thread named name that will begin executing fn at the
// current simulated time. When fn returns the thread terminates.
func (s *Sim) Spawn(name string, fn func(t *Thread)) *Thread {
	t := s.NewThread(name)
	t.Start(nil, fn)
	return t
}

// NewThread creates a thread named name that runs nothing until Start. A
// long-lived model object makes one and starts it for each burst of work,
// so the thread is counted once in Counts.Threads, however many bursts it
// runs, and is live only while a burst runs.
func (s *Sim) NewThread(name string) *Thread {
	s.created++
	return &Thread{sim: s, name: name, done: true}
}

// Start begins a burst of t at the current simulated time: its first
// dispatch is the evResume Spawn schedules. With prog set, that dispatch
// runs the program prog appends, in scheduler context, as Do runs the rest
// of a program that has waited; then t runs fn on a carrier, or ends if fn
// is nil and no continuation called Enter. Starting a thread that is still
// running panics.
func (t *Thread) Start(prog Continuation, fn func(t *Thread)) {
	s := t.sim
	if !t.done {
		panic(fmt.Sprintf("engine: Start of running thread %q", t.name))
	}
	t.done, t.parked, t.fn = false, false, fn
	if fn != nil {
		s.assign(t)
		t.prog = &t.carrier.prog
	} else {
		if t.own == nil {
			t.own = new(program)
		}
		t.prog = t.own
	}
	p := t.prog
	p.at = atNone
	if prog != nil {
		// A phase whose continuation is prog, ended at the first dispatch:
		// the first step loads the program from it.
		p.ops[0] = Op{Then: prog}
		p.n, p.pc, p.rep, p.at = 1, 0, 0, atFirst
	}
	s.live[t] = struct{}{}
	s.scheduleThread(s.now, t, evResume)
}

// Enter makes fn the body t runs once its program ends. A continuation of a
// thread that started without a body calls it to hand the rest of a burst
// to a coroutine, before a step that may block. A thread that already has a
// carrier runs its own body on, and Enter leaves it unchanged.
func (t *Thread) Enter(fn func(t *Thread)) {
	if t.carrier == nil {
		t.fn = fn
	}
}

// assign gives t a carrier for its body, from the idle pool or made anew.
func (s *Sim) assign(t *Thread) {
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
	c.th, t.carrier = t, c
}

// finish ends t's burst; its carrier, if it had one, is going back to the
// pool.
func (s *Sim) finish(t *Thread) {
	t.done, t.parked, t.carrier = true, false, nil
	delete(s.live, t)
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
	s, t := c.sim, c.th
	fn := t.fn
	c.th, t.fn = nil, nil
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || !errors.Is(err, errUnwind) {
				s.Fail(&ThreadPanicError{Thread: t.name, Value: r, Stack: string(stackTrace())})
			}
		}
		s.finish(t)
	}()
	fn(t)
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
//
// When the resume would be the next event Run dispatches anyway, the thread
// resumes in place: it takes the event's seq, counts its dispatch and moves
// the clock, but skips the queue and the two coroutine switches.
func (t *Thread) Delay(n Time) {
	s := t.sim
	at := s.now + n
	if s.resumesNext(at) {
		s.resumeInPlace(at)
		return
	}
	s.scheduleThread(at, t, evResume)
	t.park()
}

// resumeInPlace performs a thread resume at cycle at that resumesNext
// approved, without the queue: it takes the event's seq, counts its dispatch
// and moves the clock.
func (s *Sim) resumeInPlace(at Time) {
	s.seq++
	s.dispatched++
	s.now, s.lastThreadAt = at, at
}

// resumesNext reports whether a thread resume scheduled now for cycle at
// would be the next event Run dispatches, with no check in Run stopping it
// first. Every queued event must lie strictly after at: one at the same cycle
// has a smaller seq and runs first. An at that wrapped below the clock takes
// the slow path, whose scheduling check panics.
func (s *Sim) resumesNext(at Time) bool {
	if at < s.now || s.failure != nil || s.stopped || s.dispatched >= s.limit {
		return false
	}
	if at != s.now {
		if limit, _ := s.watchdog(at); limit > 0 {
			return false
		}
	}
	return !s.events.anyBy(at)
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

// watchdog returns the limit and reason of the progress check that stops a
// dispatch at cycle at, or a zero limit when none does.
func (s *Sim) watchdog(at Time) (limit Time, reason string) {
	if s.MaxCycles > 0 && at > s.MaxCycles {
		return s.MaxCycles, "simulated-cycle budget exceeded"
	}
	if s.StallCheckCycles > 0 && len(s.live) > 0 &&
		at > s.lastThreadAt && at-s.lastThreadAt > s.StallCheckCycles {
		return s.StallCheckCycles, "no thread progress within quiescence window"
	}
	return 0, ""
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
	s.limit = s.MaxEvents
	if s.limit == 0 {
		s.limit = 50_000_000_000
	}
	for len(s.events) > 0 {
		if s.dispatched >= s.limit {
			s.teardown()
			return &LivelockError{NowCycles: s.now, Events: s.dispatched}
		}
		ev := s.events.peek()
		if at := ev.at; at != s.now {
			// The watchdog checks run once per simulated cycle, not once per
			// event: they depend only on the event's cycle, so every
			// same-cycle event after the first passes them by construction.
			if limit, reason := s.watchdog(at); limit > 0 {
				return s.stall(at, limit, s.dispatched, reason)
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
