package engine

import "fmt"

// Op is one phase of a hardware transaction that Thread.Do runs. With Res
// set, the phase acquires Res at priority Prio, holds it for Cycles and
// releases it, as Acquire, Delay and Release do; with Res nil it waits
// Cycles, as Delay does. Keep, with Res set, ends the phase at the grant, as Acquire does:
// the thread keeps Res and releases it itself, and Cycles and Times must be
// zero. Wait, when set, queues the thread on the condition and ends the
// phase at the Signal or Broadcast that wakes it, as Cond.Wait does; Res,
// Cycles, Times and Keep must then be zero, and Do panics at the phase
// otherwise. Times repeats the phase, with 0 meaning once, so a DMA's
// equal-sized bus tenures are one Op. Then, when set, ends the program after
// this phase: Do runs the phases Then.Continue appends instead.
type Op struct {
	Res    *Resource
	Prio   int
	Cycles Time
	Times  int
	Keep   bool
	Wait   *Cond
	Then   Continuation
}

// Continuation extends a Do program from model state. Continue appends the
// next phases to dst, the program's own emptied storage, and returns it; the
// program ends when it appends none. It runs on the thread or in scheduler
// context, whichever the program has reached, so it must not block. A
// long-lived model object implements it, so extending a program allocates
// nothing.
type Continuation interface {
	Continue(dst []Op) []Op
}

// maxOps is a program's capacity; Do panics when a program outgrows it.
const maxOps = 8

// Where a thread's program stands.
const (
	atNone   uint8 = iota // no program runs
	atStart               // the phase at pc is about to start
	atQueued              // queued for the phase's resource or condition; an evUnpark ends the wait
	atEnd                 // the phase's cycles run; an evPhase, or an in-place resume, ends them
	atFirst               // Start's program: the first dispatch ends ops[0] and loads its Then
)

// program is the transaction a thread runs with Do or starts with. It lives
// in the thread's carrier, so a spawn allocates nothing for it; a thread
// that starts without a carrier has one of its own, made at its first start.
type program struct {
	ops   [maxOps]Op
	n, pc int
	rep   int // repetitions of ops[pc] completed
	at    uint8
}

// Do runs the phases ops in order on t, with the same events, seqs and
// dispatches as the Acquire, Delay, Release and Cond.Wait calls they stand
// for, and parks t at most once. Phases run on the thread for as long as
// each resume may happen in place (see Delay). From the first phase that
// must wait, the rest run as t's events in scheduler context, and the last
// one resumes t in its own dispatch; t stays parked in between.
func (t *Thread) Do(ops ...Op) {
	p := t.prog
	p.load(t, ops)
	p.at = atStart
	if !t.sim.step(t, p) {
		t.park()
	}
}

// load makes ops t's program, from the first repetition of its first phase.
func (p *program) load(t *Thread, ops []Op) {
	if len(ops) > len(p.ops) {
		panic(fmt.Sprintf("engine: Do program of %d phases on thread %q, capacity %d", len(ops), t.name, maxOps))
	}
	p.n, p.pc, p.rep = copy(p.ops[:], ops), 0, 0
}

// step advances t's program from where it stands until a phase must wait,
// and reports whether the program ended. A free resource is taken with no
// event and a busy one queues t; each hold or wait is one resume, in place
// when resumesNext allows and an evPhase event otherwise. A Keep phase ends
// at the grant, and a Wait phase queues t on its condition and ends at the
// evUnpark of the Signal or Broadcast that wakes it.
func (s *Sim) step(t *Thread, p *program) bool {
	for {
		switch p.at {
		case atStart:
			if p.pc == p.n {
				p.at = atNone
				return true
			}
			op := &p.ops[p.pc]
			if c := op.Wait; c != nil {
				if op.Res != nil || op.Cycles != 0 || op.Times != 0 || op.Keep {
					panic(fmt.Sprintf("engine: Wait phase of thread %q also sets Res, Cycles, Times or Keep", t.name))
				}
				c.waiters = append(c.waiters, t)
				p.at = atQueued
				return false
			}
			if op.Res != nil && !op.Res.take(t, op.Prio) {
				p.at = atQueued
				return false
			}
			if op.Keep {
				p.next(t, op)
				continue
			}
		case atQueued:
			if op := &p.ops[p.pc]; op.Keep || op.Wait != nil {
				p.at = atStart
				p.next(t, op)
				continue
			}
		case atEnd:
			op := &p.ops[p.pc]
			p.at = atStart
			if op.Res != nil {
				op.Res.Release()
			}
			p.next(t, op)
			continue
		}
		// atStart with the resource held, or atQueued: the releaser already
		// made t the holder. p.at moves on only once nothing can panic, so a
		// thread that recovers a panic from Do never looks parked in a phase.
		at := s.now + p.ops[p.pc].Cycles
		if !s.resumesNext(at) {
			s.scheduleThread(at, t, evPhase)
			p.at = atEnd
			return false
		}
		s.resumeInPlace(at)
		p.at = atEnd
	}
}

// next moves p, standing at atStart, past a finished repetition of op, its
// phase at pc: to op's next repetition, the next phase, or the phases op's
// continuation appends.
func (p *program) next(t *Thread, op *Op) {
	if p.rep++; p.rep < op.Times {
		return
	}
	p.rep = 0
	if op.Then == nil {
		p.pc++
		return
	}
	p.load(t, op.Then.Continue(p.ops[:0]))
}
