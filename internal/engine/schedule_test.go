package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// scheduleWorkload drives one simulation rich in context switches —
// Unpark-then-Park ping-pong, Delay ladders, resource arbitration, condition
// signal/broadcast — and returns the full schedule log plus the Sim for
// counter inspection.
func scheduleWorkload(t *testing.T) ([]string, *Sim) {
	t.Helper()
	s := New()
	var log []string
	step := func(who string) { log = append(log, fmt.Sprintf("%s@%d", who, s.Now())) }

	// Unpark-then-Park ping-pong.
	var ping, pong *Thread
	pong = s.Spawn("pong", func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.Park()
			step("pong")
			ping.Unpark()
		}
	})
	ping = s.Spawn("ping", func(th *Thread) {
		for i := 0; i < 50; i++ {
			step("ping")
			pong.Unpark()
			th.Park()
		}
	})

	// Delay ladders at clashing and disjoint cycles.
	for i := 0; i < 4; i++ {
		d := Time(i%2 + 1)
		name := fmt.Sprintf("delayer%d", i)
		s.Spawn(name, func(th *Thread) {
			for j := 0; j < 25; j++ {
				th.Delay(d)
				step(name)
			}
		})
	}

	// Resource arbitration: contended acquire/release with priorities.
	r := NewResource(s, "bus")
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("user%d", i)
		prio := i % 2
		s.Spawn(name, func(th *Thread) {
			for j := 0; j < 10; j++ {
				th.Do(Op{Res: r, Prio: prio, Cycles: 7})
				step(name)
			}
		})
	}

	// Condition variable: waiters woken by signal and broadcast.
	c := NewCond(s)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("waiter%d", i)
		s.Spawn(name, func(th *Thread) {
			c.Wait(th)
			step(name)
			c.Wait(th)
			step(name)
		})
	}
	s.Spawn("waker", func(th *Thread) {
		th.Delay(40)
		c.Signal()
		th.Delay(40)
		c.Broadcast()
		th.Delay(40)
		c.Broadcast()
	})

	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprintf("end@%d", s.Now()))
	return log, s
}

// TestScheduleDigestPinned pins scheduleWorkload's schedule — every thread
// step at every cycle, and the final clock — to the one the goroutine-based
// engine produced, on both its direct-handoff and scheduler-mediated paths.
// Any change in dispatch order moves the digest.
func TestScheduleDigestPinned(t *testing.T) {
	log, s := scheduleWorkload(t)
	sum := sha256.Sum256([]byte(strings.Join(log, "\n")))
	const want = "d18e8644dabd7e8658ccbf67fd8f0c0d8c7bdad60975bf90a82ad29dcefeaa11"
	if len(log) != 237 || s.dispatched != 272 || hex.EncodeToString(sum[:]) != want {
		t.Fatalf("schedule moved: %d steps, %d events, sha256 %x; want 237, 272, %s",
			len(log), s.dispatched, sum, want)
	}
}

// TestStallErrorPinned pins the exact StallError of a ping-pong that runs
// past MaxCycles: the watchdog trips at the same cycle and event count, with
// both threads parked, as on the goroutine-based engine.
func TestStallErrorPinned(t *testing.T) {
	s := New()
	s.MaxCycles = 1000
	var a, b *Thread
	b = s.Spawn("b", func(th *Thread) {
		for {
			th.Park()
			th.Delay(10)
			a.Unpark()
		}
	})
	a = s.Spawn("a", func(th *Thread) {
		for {
			th.Delay(10)
			b.Unpark()
			th.Park()
		}
	})
	err := s.Run()
	const want = "engine: stalled at cycle 1010 after 202 events (simulated-cycle budget exceeded); live threads: [a (parked) b (parked)]"
	if err == nil || err.Error() != want {
		t.Fatalf("got %v\nwant %s", err, want)
	}
}

// TestLivelockErrorPinned pins the MaxEvents guard on a zero-delay
// ping-pong: the budget trips after exactly MaxEvents dispatches with the
// same report as on the goroutine-based engine.
func TestLivelockErrorPinned(t *testing.T) {
	s := New()
	s.MaxEvents = 500
	var a, b *Thread
	b = s.Spawn("b", func(th *Thread) {
		for {
			th.Park()
			a.Unpark()
		}
	})
	a = s.Spawn("a", func(th *Thread) {
		for {
			b.Unpark()
			th.Park()
		}
	})
	err := s.Run()
	var ll *LivelockError
	const want = "engine: event budget of 500 exhausted at cycle 0 (livelock?)"
	if !errors.As(err, &ll) || err.Error() != want || s.dispatched != 500 {
		t.Fatalf("got %v after %d events\nwant %s after 500", err, s.dispatched, want)
	}
}
