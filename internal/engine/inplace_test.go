package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestInPlaceResumeFallbacks pins, one case per condition, the schedules in
// which a delaying thread must not resume in place: each expectation was
// recorded on the engine that always parked in Delay and resumed through Run.
func TestInPlaceResumeFallbacks(t *testing.T) {
	type result struct {
		log    []string
		err    error
		now    Time
		events uint64
	}
	run := func(s *Sim, body func(s *Sim, step func(string))) result {
		var log []string
		step := func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, s.Now())) }
		body(s, step)
		err := s.Run()
		return result{log: log, err: err, now: s.Now(), events: s.Counts().Events}
	}
	check := func(t *testing.T, got result, wantLog string, wantErr string, wantNow Time, wantEvents uint64) {
		t.Helper()
		if l := strings.Join(got.log, " "); l != wantLog {
			t.Errorf("log %q, want %q", l, wantLog)
		}
		if e := fmt.Sprint(got.err); e != wantErr {
			t.Errorf("err %q, want %q", e, wantErr)
		}
		if got.now != wantNow || got.events != wantEvents {
			t.Errorf("ended at cycle %d after %d events, want %d after %d", got.now, got.events, wantNow, wantEvents)
		}
	}

	t.Run("tie at now+n", func(t *testing.T) {
		// A callback and the other thread are due at exactly the cycle the
		// delayer asks for. Both were queued first, so both run first; then
		// each Delay(0) ties with the other thread's resume.
		got := run(New(), func(s *Sim, step func(string)) {
			s.Spawn("other", func(th *Thread) {
				th.Delay(10)
				step("b")
				th.Delay(0)
				step("b")
			})
			s.Spawn("delayer", func(th *Thread) {
				step("a")
				th.Delay(10)
				step("a")
				th.Delay(0)
				step("a")
			})
			s.AtTarget(10, call(func() { step("cb") }), nil)
		})
		check(t, got, "a@0 cb@10 b@10 a@10 b@10 a@10", "<nil>", 10, 7)
	})

	t.Run("stop and fail in the same dispatch", func(t *testing.T) {
		got := run(New(), func(s *Sim, step func(string)) {
			s.Spawn("stopper", func(th *Thread) {
				th.Delay(5)
				step("stop")
				s.Stop()
				th.Delay(1)
				step("after-stop")
			})
		})
		check(t, got, "stop@5", "<nil>", 5, 2)

		boom := errors.New("boom")
		got = run(New(), func(s *Sim, step func(string)) {
			s.Spawn("failer", func(th *Thread) {
				th.Delay(5)
				step("fail")
				s.Fail(boom)
				th.Delay(1)
				step("after-fail")
			})
		})
		check(t, got, "fail@5", "boom", 5, 2)
	})

	t.Run("event budget spent on the resume", func(t *testing.T) {
		s := New()
		s.MaxEvents = 7
		got := run(s, func(s *Sim, step func(string)) {
			s.Spawn("spinner", func(th *Thread) {
				for {
					step("s")
					th.Delay(1)
				}
			})
		})
		check(t, got, "s@0 s@1 s@2 s@3 s@4 s@5 s@6",
			"engine: event budget of 7 exhausted at cycle 6 (livelock?)", 6, 7)
	})

	t.Run("max cycles crossing", func(t *testing.T) {
		s := New()
		s.MaxCycles = 100
		got := run(s, func(s *Sim, step func(string)) {
			s.Spawn("walker", func(th *Thread) {
				for {
					step("w")
					th.Delay(30)
				}
			})
		})
		check(t, got, "w@0 w@30 w@60 w@90",
			"engine: stalled at cycle 120 after 4 events (simulated-cycle budget exceeded); live threads: [walker (parked)]", 90, 4)
	})

	t.Run("stall check crossing", func(t *testing.T) {
		s := New()
		s.StallCheckCycles = 50
		got := run(s, func(s *Sim, step func(string)) {
			s.Spawn("sleeper", func(th *Thread) {
				step("z")
				th.Delay(50)
				step("z")
				th.Delay(51)
				step("z")
			})
		})
		check(t, got, "z@0 z@50",
			"engine: stalled at cycle 101 after 2 events (no thread progress within quiescence window); live threads: [sleeper (parked)]", 50, 2)
	})

	t.Run("overflowing now+n", func(t *testing.T) {
		got := run(New(), func(s *Sim, step func(string)) {
			s.Spawn("wrapper", func(th *Thread) {
				th.Delay(10)
				step("x")
				th.Delay(^Time(0))
				step("after-wrap")
			})
		})
		check(t, got, "x@10",
			`engine: thread "wrapper" panicked: engine: scheduling into the past (at=9 now=10)`, 10, 2)
		var tp *ThreadPanicError
		if !errors.As(got.err, &tp) {
			t.Fatalf("want a *ThreadPanicError, got %T", got.err)
		}
	})
}

// randomProgram runs one seeded random simulation and returns its step log,
// ending with the run's error, final clock and event count, and the
// simulation's work counters. Threads mix
// Delay(0), short delays and long delays (longCycles), Park/Unpark,
// Spawn from threads and from callbacks, AtTarget events, Resource
// use and Cond waits. A sweeper callback wakes every parked thread and Cond
// waiter until all workers have finished, so a program never deadlocks.
func randomProgram(seed int64) ([]string, Counts) {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	var log []string
	step := func(who, what string) { log = append(log, fmt.Sprintf("%s:%s@%d", who, what, s.Now())) }

	res := NewResource(s, "res")
	cond := NewCond(s)
	var parked []*Thread
	active := 0
	tk := &stepTarget{step: step}

	delay := func() Time {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return longCycles + Time(rng.Intn(3*longCycles))
		default:
			return Time(rng.Intn(20) + 1)
		}
	}

	var worker func(name string, depth int) func(th *Thread)
	worker = func(name string, depth int) func(th *Thread) {
		ops := rng.Intn(12) + 1
		return func(th *Thread) {
			defer func() { active-- }()
			for i := 0; i < ops; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					d := delay()
					th.Delay(d)
					step(name, fmt.Sprintf("delay%d", d))
				case 4:
					parked = append(parked, th)
					th.Park()
					step(name, "unparked")
				case 5:
					if len(parked) > 0 {
						j := rng.Intn(len(parked))
						p := parked[j]
						parked = append(parked[:j], parked[j+1:]...)
						p.Unpark()
						step(name, "unpark")
					}
				case 6:
					th.Do(Op{Res: res, Prio: rng.Intn(3), Cycles: Time(rng.Intn(15))})
					step(name, "use")
				case 7:
					cond.Wait(th)
					step(name, "woke")
				case 8:
					if rng.Intn(2) == 0 {
						cond.Signal()
					} else {
						cond.Broadcast()
					}
					step(name, "signal")
				case 9:
					if depth < 3 {
						child := fmt.Sprintf("%s.%d", name, i)
						active++
						s.Spawn(child, worker(child, depth+1))
						step(name, "spawn")
					} else {
						s.AtTarget(Time(rng.Intn(8)), tk, name)
					}
				}
			}
			step(name, "done")
		}
	}

	n := rng.Intn(6) + 1
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		active++
		s.Spawn(name, worker(name, 0))
	}
	callbacks := rng.Intn(4)
	for i := 0; i < callbacks; i++ {
		name := fmt.Sprintf("cb%d", i)
		active++ // counted now, so the sweeper cannot retire before it spawns
		s.AtTarget(Time(rng.Intn(40)), call(func() {
			step(name, "spawn")
			s.Spawn(name+"t", worker(name+"t", 1))
		}), nil)
	}

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
		s.AtTarget(Time(rng.Intn(50)+25), call(sweep), nil)
	}
	s.AtTarget(Time(rng.Intn(50)+25), call(sweep), nil)

	err := s.Run()
	log = append(log, fmt.Sprintf("end@%d events=%d err=%v", s.Now(), s.Counts().Events, err))
	return log, s.Counts()
}

type stepTarget struct{ step func(who, what string) }

func (k *stepTarget) HandleEvent(arg any) { k.step(arg.(string), "target") }

// TestRandomScheduleDigestPinned pins the schedules of 200 seeded random
// programs (see randomProgram) with one sha256 over every step log, final
// clock and event count. The digest was recorded on the engine that always
// parked in Delay and resumed through Run, so it proves that resuming in
// place changes no schedule.
func TestRandomScheduleDigestPinned(t *testing.T) {
	h := sha256.New()
	steps := 0
	var switches uint64
	for seed := int64(1); seed <= 200; seed++ {
		log, c := randomProgram(seed)
		steps += len(log)
		switches += c.Switches
		fmt.Fprintf(h, "seed %d\n%s\n", seed, strings.Join(log, "\n"))
	}
	const want = "5f23be3324615acec1d0de3651b1260a15daa8256571084d05a7bf06ae65a851"
	if got := hex.EncodeToString(h.Sum(nil)); steps != 15986 || got != want {
		t.Fatalf("schedules moved: %d steps, sha256 %s; want 15986, %s", steps, got, want)
	}
	// The always-parking engine switched into a thread 12,599 times here.
	// In-place resumes saved 2,748 of those, and running each resource use
	// as a one-phase Do program, which parks at most once, 226 more.
	if switches != 9625 {
		t.Fatalf("%d coroutine switches, want 9625", switches)
	}
}
