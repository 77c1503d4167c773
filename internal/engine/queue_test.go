package engine

import (
	"math/rand"
	"sort"
	"testing"
)

// longCycles is the long delay the random tests draw besides short ones.
// The pinned random-schedule digests were recorded with these draws, so the
// value stays.
const longCycles = 4096

// pop removes and returns the head event.
func (h *eventHeap) pop() event {
	e := (*h)[0]
	h.popHead()
	return e
}

// refQueue is the ordering oracle for the event heap: a sorted slice keyed
// (at, seq), correct by construction.
type refQueue []event

func (r *refQueue) push(e event) {
	i := sort.Search(len(*r), func(i int) bool {
		q := (*r)[i]
		return q.at > e.at || (q.at == e.at && q.seq > e.seq)
	})
	*r = append(*r, event{})
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = e
}

func (r *refQueue) pop() event {
	e := (*r)[0]
	*r = (*r)[1:]
	return e
}

// TestWheelPropertyOrdering cross-checks the event heap against the sorted
// reference over randomized push/pop batches. Deltas mix same-cycle fan-in
// (ties broken by seq), near-future and far-future events, and pops
// interleave with pushes. Probes of anyBy at the same deltas must agree with
// the reference and disturb nothing.
func TestWheelPropertyOrdering(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventHeap
		var ref refQueue
		var seq uint64
		var clock Time // at of the last popped event; pushes never precede it

		randomDelta := func() Time {
			switch rng.Intn(10) {
			case 0, 1, 2: // same cycle
				return 0
			case 3, 4, 5:
				return Time(rng.Intn(16))
			case 6, 7, 8:
				return Time(rng.Intn(longCycles))
			default:
				return Time(rng.Intn(100_000))
			}
		}

		for round := 0; round < 40; round++ {
			for n := rng.Intn(12); n > 0; n-- {
				seq++
				e := event{at: clock + randomDelta(), seq: seq, kind: evResume}
				q.push(e)
				ref.push(e)
			}
			for n := 0; n < 3; n++ {
				probe := clock + randomDelta()
				if got, want := q.anyBy(probe), len(ref) > 0 && ref[0].at <= probe; got != want {
					t.Fatalf("seed %d: anyBy(%d) = %v, want %v", seed, probe, got, want)
				}
			}
			for n := rng.Intn(14); n > 0 && len(q) > 0; n-- {
				if got, want := q.peek(), &ref[0]; got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d: peek (at=%d seq=%d), want (at=%d seq=%d)",
						seed, got.at, got.seq, want.at, want.seq)
				}
				got, want := q.pop(), ref.pop()
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d: pop (at=%d seq=%d), want (at=%d seq=%d)",
						seed, got.at, got.seq, want.at, want.seq)
				}
				clock = got.at
			}
			if len(q) != len(ref) {
				t.Fatalf("seed %d: size %d, want %d", seed, len(q), len(ref))
			}
		}
		// Drain: every queue must empty in exact (at, seq) order.
		for len(q) > 0 {
			got, want := q.pop(), ref.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d drain: pop (at=%d seq=%d), want (at=%d seq=%d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
		}
		if len(ref) != 0 {
			t.Fatalf("seed %d: heap drained with %d reference events left", seed, len(ref))
		}
	}
}

// TestWheelSpillInterleavesWithBucket interleaves same-cycle pushes and
// pops: seven events of one cycle, four popped, one more pushed with a later
// seq. Pops must come out in strict seq order throughout.
func TestWheelSpillInterleavesWithBucket(t *testing.T) {
	var q eventHeap
	const at = Time(7)
	n := 4 + 3
	for i := 0; i < n; i++ {
		q.push(event{at: at, seq: uint64(i + 1), kind: evResume})
	}
	for i := 0; i < 4; i++ {
		if e := q.pop(); e.seq != uint64(i+1) {
			t.Fatalf("pop %d: seq %d", i, e.seq)
		}
	}
	q.push(event{at: at, seq: uint64(n + 1), kind: evResume})
	want := []uint64{5, 6, 7, uint64(n + 1)}
	for i, w := range want {
		if e := q.pop(); e.seq != w {
			t.Fatalf("tail pop %d: seq %d, want %d", i, e.seq, w)
		}
	}
	if len(q) != 0 {
		t.Fatalf("queue not drained: size=%d", len(q))
	}
}
