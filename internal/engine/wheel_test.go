package engine

import (
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the ordering oracle for the timing wheel: a sorted slice keyed
// (at, seq), correct by construction and oblivious to bucket/overflow
// placement.
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

// TestWheelPropertyOrdering cross-checks the timing wheel against the sorted
// reference over randomized push/pop batches. Delta classes are chosen to
// exercise every placement path: same-cycle fan-in past bucketCap (heap
// spill), in-window buckets, the wheel-window boundary, and far-future
// overflow; pops interleave so the window slides mid-stream. Probes of anyBy
// at the same deltas must agree with the reference and disturb nothing.
func TestWheelPropertyOrdering(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		q.init()
		var ref refQueue
		var seq uint64
		var clock Time // at of the last popped event; pushes never precede it

		randomDelta := func() Time {
			switch rng.Intn(10) {
			case 0, 1, 2: // same-cycle: fan-in, spill-to-heap coverage
				return 0
			case 3, 4, 5: // near-future bucket
				return Time(rng.Intn(16))
			case 6, 7: // mid-window
				return Time(rng.Intn(wheelSize))
			case 8: // wheel-window boundary straddle
				return wheelSize - 6 + Time(rng.Intn(12))
			default: // far-future overflow
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
					t.Fatalf("seed %d: anyBy(%d) = %v with cursor %d, want %v", seed, probe, got, q.cur, want)
				}
			}
			for n := rng.Intn(14); n > 0 && q.size > 0; n-- {
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
			if q.size != len(ref) {
				t.Fatalf("seed %d: size %d, want %d", seed, q.size, len(ref))
			}
		}
		// Drain: every queue must empty in exact (at, seq) order.
		for q.size > 0 {
			got, want := q.pop(), ref.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d drain: pop (at=%d seq=%d), want (at=%d seq=%d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
		}
		if len(ref) != 0 {
			t.Fatalf("seed %d: wheel drained with %d reference events left", seed, len(ref))
		}
	}
}

// TestWheelSpillInterleavesWithBucket pins the subtle case: a cycle's bucket
// fills, later events of that cycle spill to the overflow heap, the bucket
// drains and refills with yet-later seqs — pops must still come out in strict
// seq order across the two stores.
func TestWheelSpillInterleavesWithBucket(t *testing.T) {
	var q eventQueue
	q.init()
	const at = Time(7)
	n := bucketCap + 3 // bucket full + spilled tail
	for i := 0; i < n; i++ {
		q.push(event{at: at, seq: uint64(i + 1), kind: evResume})
	}
	// Drain the bucket portion only, then add more same-cycle events: they
	// land in the now-empty bucket with seqs above the spilled ones.
	for i := 0; i < bucketCap; i++ {
		if e := q.pop(); e.seq != uint64(i+1) {
			t.Fatalf("pop %d: seq %d", i, e.seq)
		}
	}
	q.push(event{at: at, seq: uint64(n + 1), kind: evResume})
	want := []uint64{uint64(bucketCap + 1), uint64(bucketCap + 2), uint64(bucketCap + 3), uint64(n + 1)}
	for i, w := range want {
		if e := q.pop(); e.seq != w {
			t.Fatalf("tail pop %d: seq %d, want %d", i, e.seq, w)
		}
	}
	if q.size != 0 {
		t.Fatalf("queue not drained: size=%d", q.size)
	}
}

// TestWheelJumpForward: with the wheel empty, popping a far-future overflow
// event must jump the cursor directly to it (no bucket-by-bucket walk), and
// events pushed after the jump land relative to the new window.
func TestWheelJumpForward(t *testing.T) {
	var q eventQueue
	q.init()
	q.push(event{at: 10 * wheelSize, seq: 1, kind: evResume})
	if e := q.pop(); e.at != 10*wheelSize {
		t.Fatalf("jump pop at=%d", e.at)
	}
	// The window now starts at the popped time: a +1 delta is a bucket push.
	q.push(event{at: 10*wheelSize + 1, seq: 2, kind: evResume})
	if q.wheelCount != 1 {
		t.Fatalf("post-jump near-future push missed the wheel: wheelCount=%d", q.wheelCount)
	}
	if e := q.pop(); e.seq != 2 {
		t.Fatalf("post-jump pop seq=%d", e.seq)
	}
}
