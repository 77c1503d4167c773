package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// phasePlan is one pre-drawn phase: a resource index (-1 for a plain wait),
// a priority, a cycle count and a repeat count.
type phasePlan struct {
	res, prio int
	cycles    Time
	times     int
}

// txPlan is one pre-drawn transaction: the phases Do starts with, then the
// segments a continuation appends one per call. then[i] is the index of the
// phase of segment i that carries the continuation (the phases after it never
// run), or -1.
type txPlan struct {
	segs [][]phasePlan
	then []int
}

// txCont builds a txPlan's phases on one Sim's resources and continues it.
type txCont struct {
	tx   *txPlan
	next int // the next segment to append
	res  []*Resource
	step func(what string)
}

func (c *txCont) Continue(dst []Op) []Op {
	c.step("cont")
	return c.appendSeg(dst)
}

func (c *txCont) appendSeg(dst []Op) []Op {
	if c.next == len(c.tx.segs) {
		return dst
	}
	i := c.next
	c.next++
	for j, ph := range c.tx.segs[i] {
		op := Op{Prio: ph.prio, Cycles: ph.cycles, Times: ph.times}
		if ph.res >= 0 {
			op.Res = c.res[ph.res]
		}
		if j == c.tx.then[i] {
			op.Then = c
		}
		dst = append(dst, op)
	}
	return dst
}

// runExpanded is Do's reference: it runs ops on the thread with one
// Acquire, Delay and Release per repetition of a resource phase, one
// Acquire for a Keep phase, one Delay per repetition of a wait, and calls a
// continuation inline.
func runExpanded(th *Thread, ops []Op) {
	for len(ops) > 0 {
		op := ops[0]
		ops = ops[1:]
		for r := 0; r < max(op.Times, 1); r++ {
			if op.Res == nil {
				th.Delay(op.Cycles)
				continue
			}
			if op.Keep {
				op.Res.Acquire(th, op.Prio)
				continue
			}
			op.Res.Acquire(th, op.Prio)
			th.Delay(op.Cycles)
			op.Res.Release()
		}
		if op.Then != nil {
			ops = op.Then.Continue(nil)
		}
	}
}

// doFunc runs one transaction's phases on a thread: Thread.Do, or the
// reference expansion.
type doFunc func(th *Thread, ops ...Op)

var (
	viaDo       doFunc = (*Thread).Do
	viaExpanded doFunc = func(th *Thread, ops ...Op) { runExpanded(th, ops) }
)

// Worker step kinds of a pre-drawn random program: the randomProgram noise
// operations plus transactions.
const (
	kDelay = iota
	kPark
	kUnpark
	kWait
	kSignal
	kSpawn
	kTarget
	kTx
)

type planStep struct {
	kind  int
	n     Time // delay cycles, AtTarget delay, or Signal (0) / Broadcast (1)
	pick  int  // which parked thread an unpark wakes, modulo their number
	child []planStep
	tx    *txPlan
}

// txProgram is one pre-drawn random simulation: worker plans, callbacks
// that spawn more workers, the sweeper's gaps and the run's budgets.
type txProgram struct {
	workers   [][]planStep
	callbacks []struct {
		at   Time
		plan []planStep
	}
	sweepGaps             []Time
	maxCycles, stallCheck Time
	maxEvents             uint64
}

func drawCycles(rng *rand.Rand) Time {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return longCycles + Time(rng.Intn(3*longCycles))
	default:
		return Time(rng.Intn(20) + 1)
	}
}

func drawTx(rng *rand.Rand) *txPlan {
	tx := &txPlan{}
	nseg := 1
	if rng.Intn(3) == 0 {
		nseg += 1 + rng.Intn(3)
	}
	for i := 0; i < nseg; i++ {
		seg := make([]phasePlan, 1+rng.Intn(4))
		for j := range seg {
			seg[j] = phasePlan{res: rng.Intn(4) - 1, prio: rng.Intn(3), cycles: drawCycles(rng), times: rng.Intn(4)}
		}
		then := -1
		if i < nseg-1 || rng.Intn(4) == 0 {
			then = rng.Intn(len(seg))
		}
		tx.segs = append(tx.segs, seg)
		tx.then = append(tx.then, then)
	}
	return tx
}

func drawPlan(rng *rand.Rand, depth int) []planStep {
	steps := make([]planStep, rng.Intn(12)+1)
	for i := range steps {
		st := &steps[i]
		switch k := rng.Intn(12); {
		case k < 3:
			st.kind, st.n = kDelay, drawCycles(rng)
		case k == 3:
			st.kind = kPark
		case k == 4:
			st.kind, st.pick = kUnpark, rng.Intn(64)
		case k == 5:
			st.kind = kWait
		case k == 6:
			st.kind, st.n = kSignal, Time(rng.Intn(2))
		case k == 7 && depth < 3:
			st.kind, st.child = kSpawn, drawPlan(rng, depth+1)
		case k == 7:
			st.kind, st.n = kTarget, Time(rng.Intn(8))
		default:
			st.kind, st.tx = kTx, drawTx(rng)
		}
	}
	return steps
}

func drawTxProgram(seed int64) *txProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &txProgram{}
	for i := rng.Intn(6) + 1; i > 0; i-- {
		p.workers = append(p.workers, drawPlan(rng, 0))
	}
	for i := rng.Intn(4); i > 0; i-- {
		p.callbacks = append(p.callbacks, struct {
			at   Time
			plan []planStep
		}{Time(rng.Intn(40)), drawPlan(rng, 1)})
	}
	for i := 0; i < 16; i++ {
		p.sweepGaps = append(p.sweepGaps, Time(rng.Intn(50)+25))
	}
	switch rng.Intn(4) {
	case 0:
		p.maxCycles = Time(rng.Intn(3 * longCycles))
	case 1:
		p.maxEvents = uint64(rng.Intn(400) + 1)
	case 2:
		p.stallCheck = Time(rng.Intn(2*longCycles) + 1)
	}
	return p
}

// ownFunc runs one transaction on a thread of its own while the worker goes
// on. With body set the thread is fresh and logs "tx" once the transaction
// ends; without, it is a thread of the worker's pool that is not running,
// named for its place in the pool, and logs nothing.
type ownFunc func(s *Sim, pool *[]*Thread, name string, c *txCont, body bool, step func(what string))

// viaProgram starts the thread with the transaction as its program: a fresh
// thread whose body logs, or a reusable one made once with NewThread.
func viaProgram(s *Sim, pool *[]*Thread, name string, c *txCont, body bool, step func(what string)) {
	if body {
		s.NewThread(name).Start(c, func(*Thread) { step("tx") })
		return
	}
	for _, t := range *pool {
		if t.done {
			t.Start(c, nil)
			return
		}
	}
	t := s.NewThread(fmt.Sprintf("%s.svc%d", name, len(*pool)))
	*pool = append(*pool, t)
	t.Start(c, nil)
}

// viaSpawn is viaProgram's reference: a Spawned thread runs the expansion,
// under the name viaProgram's thread would have.
func viaSpawn(s *Sim, pool *[]*Thread, name string, c *txCont, body bool, step func(what string)) {
	run := func(th *Thread) {
		runExpanded(th, c.Continue(nil))
		if body {
			step("tx")
		}
	}
	if body {
		s.Spawn(name, run)
		return
	}
	for i, t := range *pool {
		if t.done {
			(*pool)[i] = s.Spawn(t.name, run)
			return
		}
	}
	*pool = append(*pool, s.Spawn(fmt.Sprintf("%s.svc%d", name, len(*pool)), run))
}

// runTxProgram runs prog with each transaction through do, or, with own
// set, on threads of their own through own, and returns the step log,
// ending with the run's error, final clock and event count, and the work
// counters. A sweeper wakes parked threads and Cond waiters until every
// worker has finished, so only a budget ends a program early.
func runTxProgram(prog *txProgram, do doFunc, own ownFunc) ([]string, Counts) {
	s := New()
	s.MaxCycles, s.MaxEvents, s.StallCheckCycles = prog.maxCycles, prog.maxEvents, prog.stallCheck
	var log []string
	step := func(who, what string) { log = append(log, fmt.Sprintf("%s:%s@%d", who, what, s.Now())) }
	res := []*Resource{NewResource(s, "r0"), NewResource(s, "r1"), NewResource(s, "r2")}
	cond := NewCond(s)
	var parked []*Thread
	active := 0
	tk := &stepTarget{step: step}

	var worker func(name string, plan []planStep) func(th *Thread)
	worker = func(name string, plan []planStep) func(th *Thread) {
		var pool []*Thread
		return func(th *Thread) {
			defer func() { active-- }()
			for i, st := range plan {
				switch st.kind {
				case kDelay:
					th.Delay(st.n)
					step(name, fmt.Sprintf("delay%d", st.n))
				case kPark:
					parked = append(parked, th)
					th.Park()
					step(name, "unparked")
				case kUnpark:
					if len(parked) > 0 {
						j := st.pick % len(parked)
						p := parked[j]
						parked = append(parked[:j], parked[j+1:]...)
						p.Unpark()
						step(name, "unpark")
					}
				case kWait:
					cond.Wait(th)
					step(name, "woke")
				case kSignal:
					if st.n == 0 {
						cond.Signal()
					} else {
						cond.Broadcast()
					}
					step(name, "signal")
				case kSpawn:
					child := fmt.Sprintf("%s.%d", name, i)
					active++
					s.Spawn(child, worker(child, st.child))
					step(name, "spawn")
				case kTarget:
					s.AtTarget(st.n, tk, name)
				case kTx:
					if own != nil {
						child := fmt.Sprintf("%s.%d", name, i)
						c := &txCont{tx: st.tx, res: res, step: func(what string) { step(child, what) }}
						own(s, &pool, child, c, i%2 == 0, c.step)
						step(name, "start")
						continue
					}
					c := &txCont{tx: st.tx, res: res, step: func(what string) { step(name, what) }}
					do(th, c.appendSeg(nil)...)
					step(name, "tx")
				}
			}
			step(name, "done")
		}
	}

	for i, plan := range prog.workers {
		name := fmt.Sprintf("w%d", i)
		active++
		s.Spawn(name, worker(name, plan))
	}
	for i, cb := range prog.callbacks {
		name, plan := fmt.Sprintf("cb%d", i), cb.plan
		active++
		s.AtTarget(cb.at, call(func() {
			step(name, "spawn")
			s.Spawn(name+"t", worker(name+"t", plan))
		}), nil)
	}
	sweeps := 0
	var sweep func()
	sweep = func() {
		if active == 0 {
			return
		}
		for _, p := range parked {
			p.Unpark()
		}
		parked = parked[:0]
		cond.Broadcast()
		sweeps++
		s.AtTarget(prog.sweepGaps[sweeps%len(prog.sweepGaps)], call(sweep), nil)
	}
	s.AtTarget(prog.sweepGaps[0], call(sweep), nil)

	err := s.Run()
	log = append(log, fmt.Sprintf("end@%d events=%d err=%v", s.Now(), s.Counts().Events, err))
	return log, s.Counts()
}

// TestDoMatchesExpandedPhases runs 300 pre-drawn random programs twice, once
// with every transaction through Thread.Do and once through the reference
// expansion on the thread, and requires the same step log, final clock,
// event count and error text, with no more coroutine switches. Transactions
// mix three shared resources and plain waits, priorities 0-2, cycles of 0,
// 1-20 or long (longCycles), repeat counts 0-3 and continuations; the
// noise around them is randomProgram's. A quarter of the programs each run
// under a MaxCycles budget, a MaxEvents budget and the quiescence watchdog.
//
// The same programs then run every transaction on a thread of its own:
// started with the transaction as its program, alternately a fresh thread
// with a body and a reusable thread without one, against a Spawned thread
// that runs the expansion. The logs, clocks, event counts and error texts,
// thread lists and (parked) markers included, must again match, with no
// more switches.
func TestDoMatchesExpandedPhases(t *testing.T) {
	for _, tc := range []struct {
		name        string
		do, ref     doFunc
		own, ownRef ownFunc
	}{
		{"Do", viaDo, viaExpanded, nil, nil},
		{"program-first", nil, nil, viaProgram, viaSpawn},
	} {
		var doSwitches, refSwitches uint64
		errs := 0
		for seed := int64(1); seed <= 300; seed++ {
			prog := drawTxProgram(seed)
			got, gc := runTxProgram(prog, tc.do, tc.own)
			want, wc := runTxProgram(prog, tc.ref, tc.ownRef)
			if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
				t.Fatalf("%s, seed %d: schedule\n%s\nwant the expanded schedule\n%s", tc.name, seed, g, w)
			}
			if gc.Events != wc.Events || gc.Switches > wc.Switches {
				t.Fatalf("%s, seed %d: counts %+v, expanded %+v", tc.name, seed, gc, wc)
			}
			if !strings.HasSuffix(got[len(got)-1], "err=<nil>") {
				errs++
			}
			doSwitches += gc.Switches
			refSwitches += wc.Switches
		}
		if doSwitches >= refSwitches || errs == 0 {
			t.Fatalf("%s made %d switches to the expansion's %d, with %d runs ended by a budget; want fewer switches and some budget stops",
				tc.name, doSwitches, refSwitches, errs)
		}
	}
}

// runBoth builds one scenario twice, running its transactions through Do and
// through the reference expansion, and requires the same log and outcome. It
// returns the Do run's log and error.
func runBoth(t *testing.T, build func(s *Sim, do doFunc, step func(string))) (string, error) {
	t.Helper()
	run := func(do doFunc) (string, error) {
		s := New()
		var log []string
		build(s, do, func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, s.Now())) })
		err := s.Run()
		log = append(log, fmt.Sprintf("end@%d events=%d", s.Now(), s.Counts().Events))
		return strings.Join(log, " "), err
	}
	got, gotErr := run(viaDo)
	want, wantErr := run(viaExpanded)
	if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Do ran %q, %v; the expansion ran %q, %v", got, gotErr, want, wantErr)
	}
	return got, gotErr
}

// TestDoKillLeavesResourceHeld: a thread killed while queued for a resource
// inside a program, or while holding it mid-phase, never releases it, as
// Kill documents; a later user waits forever.
func TestDoKillLeavesResourceHeld(t *testing.T) {
	for _, tc := range []struct {
		name           string
		victimAt       Time // when the victim starts its transaction
		wantLog        string
		wantBusyCycles Time // BusyCycles when the run ends
	}{
		// The holder hands the bus to the killed waiter at 100; the grant
		// is dispatched and skipped.
		{"queued", 1, "holder@100 end@100 events=8", 100},
		// The victim took the bus at 0 and dies holding it; the end of its
		// hold is dispatched and skipped.
		{"holding", 0, "end@100 events=6", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r *Resource
			log, err := runBoth(t, func(s *Sim, do doFunc, step func(string)) {
				r = NewResource(s, "bus")
				victim := s.Spawn("victim", func(th *Thread) {
					th.Delay(tc.victimAt)
					do(th, Op{Res: r, Cycles: 100}, Op{Cycles: 5})
					step("victim")
				})
				if tc.victimAt > 0 {
					s.Spawn("holder", func(th *Thread) {
						do(th, Op{Res: r, Cycles: 100})
						step("holder")
					})
				}
				s.AtTarget(50, call(func() { s.Kill(victim) }), nil)
				s.Spawn("late", func(th *Thread) {
					th.Delay(60)
					th.Do(Op{Res: r, Cycles: 1})
					step("late")
				})
			})
			var dl *DeadlockError
			if !errors.As(err, &dl) || strings.Join(dl.Threads, ",") != "late" {
				t.Fatalf("want a deadlock of late, got %v", err)
			}
			if log != tc.wantLog || !r.Busy() || r.BusyCycles != tc.wantBusyCycles {
				t.Fatalf("log %q, busy %v with %d cycles; want %q, busy with %d",
					log, r.Busy(), r.BusyCycles, tc.wantLog, tc.wantBusyCycles)
			}
		})
	}
}

// TestDoStopsBetweenPhases: MaxCycles crossed by a phase that runs in
// scheduler context, and Stop, Fail or an event budget striking between
// phases, end the run as they end the expanded one, with the same error
// text, (parked) markers included.
func TestDoStopsBetweenPhases(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		setup   func(s *Sim)
		wantLog string
		wantErr string
	}{
		{
			// t2 queues behind t1 and is granted the bus at 40. Its hold,
			// in scheduler context, would resume in place but for the
			// budget.
			name:    "max cycles",
			setup:   func(s *Sim) { s.MaxCycles = 45 },
			wantLog: "end@40 events=4",
			wantErr: "engine: stalled at cycle 50 after 4 events (simulated-cycle budget exceeded); live threads: [t1 (parked) t2 (parked)]",
		},
		{
			name:    "stop",
			setup:   func(s *Sim) { s.AtTarget(45, call(s.Stop), nil) },
			wantLog: "end@45 events=5",
			wantErr: "<nil>",
		},
		{
			name:    "fail",
			setup:   func(s *Sim) { s.AtTarget(45, call(func() { s.Fail(boom) }), nil) },
			wantLog: "end@45 events=5",
			wantErr: "boom",
		},
		{
			// The grant at 40 spends the budget, so t2's hold parks.
			name:    "event budget",
			setup:   func(s *Sim) { s.MaxEvents = 4 },
			wantLog: "end@40 events=4",
			wantErr: "engine: event budget of 4 exhausted at cycle 40 (livelock?)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log, err := runBoth(t, func(s *Sim, do doFunc, step func(string)) {
				tc.setup(s)
				r := NewResource(s, "bus")
				s.Spawn("t1", func(th *Thread) {
					do(th, Op{Res: r, Cycles: 40}, Op{Cycles: 100}, Op{Res: r, Cycles: 10})
					step("t1")
				})
				s.Spawn("t2", func(th *Thread) {
					do(th, Op{Res: r, Cycles: 10})
					step("t2")
				})
			})
			if log != tc.wantLog || fmt.Sprint(err) != tc.wantErr {
				t.Fatalf("ran %q, %v; want %q, %s", log, err, tc.wantLog, tc.wantErr)
			}
		})
	}
}

// TestDoParksOnce: a transaction that must wait parks its thread once,
// however many of its phases then run in scheduler context, and one that
// never waits does not park at all.
func TestDoParksOnce(t *testing.T) {
	s := New()
	r := NewResource(s, "bus")
	s.Spawn("holder", func(th *Thread) { th.Do(Op{Res: r, Cycles: 10}) })
	s.Spawn("reader", func(th *Thread) {
		th.Do(Op{Res: r, Cycles: 8}, Op{Cycles: 28}, Op{Res: r, Cycles: 16, Times: 3})
		th.Do(Op{Cycles: 5}, Op{Res: r, Cycles: 5})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// holder: one first dispatch, one switch back after its hold. reader:
	// one first dispatch and one switch back for the first Do; the second
	// runs in place.
	if c := s.Counts(); c.Switches != 4 || s.Now() != 10+8+28+3*16+5+5 {
		t.Fatalf("Counts() = %+v at cycle %d", c, s.Now())
	}
}

// TestDoProgramCapacity: a program longer than a carrier holds, from Do or
// from a continuation, fails the thread.
func TestDoProgramCapacity(t *testing.T) {
	long := make([]Op, maxOps+1)
	for _, start := range [][]Op{long, {{Then: appendAll(long)}}} {
		s := New()
		s.Spawn("t", func(th *Thread) { th.Do(start...) })
		err := s.Run()
		var tp *ThreadPanicError
		if !errors.As(err, &tp) || !strings.Contains(err.Error(), "phases on thread \"t\", capacity 8") {
			t.Fatalf("want a capacity panic, got %v", err)
		}
	}
}

// appendAll is a continuation that appends a fixed list of phases.
type appendAll []Op

func (a appendAll) Continue(dst []Op) []Op { return append(dst, a...) }

// grantCont is a handler-preamble-shaped continuation: on its first call it
// appends a wait and a Keep phase on res that continues with it; at the
// grant it logs and appends a second wait.
type grantCont struct {
	res     *Resource
	step    func(string)
	granted bool
}

func (g *grantCont) Continue(dst []Op) []Op {
	if !g.granted {
		g.granted = true
		return append(dst, Op{Cycles: 5}, Op{Res: g.res, Keep: true, Then: g})
	}
	g.step("granted")
	return append(dst, Op{Cycles: 10})
}

// TestKeepPhaseEndsAtGrant: a Keep phase ends when its resource is granted,
// free or contended, as Acquire does: its continuation runs at the grant,
// and the thread then holds the resource until it releases it. On the
// thread through Do, and as the program a thread starts with, it matches
// the Acquire expansion.
func TestKeepPhaseEndsAtGrant(t *testing.T) {
	for _, hold := range []Time{0, 30} {
		build := func(s *Sim, step func(string)) *Resource {
			r := NewResource(s, "cpu")
			if hold > 0 {
				s.Spawn("holder", func(th *Thread) {
					th.Do(Op{Res: r, Cycles: hold})
					step("holder")
				})
			}
			return r
		}
		body := func(r *Resource, step func(string)) func(*Thread) {
			return func(th *Thread) {
				step("body")
				th.Delay(1)
				r.Release()
			}
		}
		log, _ := runBoth(t, func(s *Sim, do doFunc, step func(string)) {
			r := build(s, step)
			s.Spawn("handler", func(th *Thread) {
				g := &grantCont{res: r, step: step}
				do(th, g.Continue(nil)...)
				body(r, step)(th)
			})
		})
		want := map[Time]string{
			0:  "granted@5 body@15 end@16 events=4",
			30: "holder@30 granted@30 body@40 end@41 events=7",
		}[hold]
		// The holder switches in and back after its hold; the handler
		// switches once, into its body.
		wantSwitches := map[Time]uint64{0: 1, 30: 3}[hold]
		if log != want {
			t.Errorf("hold %d: ran %q, want %q", hold, log, want)
		}
		s := New()
		var got []string
		step := func(what string) { got = append(got, fmt.Sprintf("%s@%d", what, s.Now())) }
		r := build(s, step)
		s.NewThread("handler").Start(&grantCont{res: r, step: step}, body(r, step))
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("end@%d events=%d", s.Now(), s.Counts().Events))
		if g := strings.Join(got, " "); g != want || s.Counts().Switches != wantSwitches {
			t.Errorf("hold %d: the program-first thread ran %q with %+v, want %q and %d switches", hold, g, s.Counts(), want, wantSwitches)
		}
	}
}

// TestServiceThreadBursts: a thread made with NewThread runs one burst per
// Start without a switch, is counted once however many bursts it runs, is
// live only while a burst runs, and panics when started while running.
func TestServiceThreadBursts(t *testing.T) {
	s := New()
	svc := s.NewThread("svc")
	start := func() { svc.Start(appendAll{{Cycles: 10}}, nil) }
	var restart any
	s.AtTarget(0, call(start), nil)
	s.AtTarget(5, call(func() {
		defer func() { restart = recover() }()
		start()
	}), nil)
	s.AtTarget(20, call(start), nil)
	s.Spawn("stuck", func(th *Thread) { th.Park() })
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) || strings.Join(dl.Threads, ",") != "stuck" || s.Now() != 30 {
		t.Fatalf("Run() = %v at cycle %d, want a deadlock of stuck alone at 30", err, s.Now())
	}
	if fmt.Sprint(restart) != `engine: Start of running thread "svc"` {
		t.Fatalf("Start while running: recovered %v", restart)
	}
	if c := s.Counts(); c.Threads != 2 || c.Switches != 1 {
		t.Fatalf("Counts() = %+v, want 2 threads and only stuck's switch", c)
	}
}
