package engine

import "math/bits"

// The event queue is a timing wheel (a calendar queue) paired with a binary
// heap. The wheel covers a sliding window of wheelSize consecutive cycles
// with one bucket per cycle, so scheduling an event inside the window is an
// O(1) append into recycled, slab-backed storage and finding the next event
// is an O(1) bitmap probe — measured on the FFT workload, >99% of scheduled
// deltas fit in the window. Events beyond the window (periodic timers, long
// sleeps), and events landing on a cycle whose bucket is full, go to the
// heap; peek compares the wheel head and the heap head by (at, seq), so the
// two stores interleave without any cascading or re-sorting.
//
// Ordering is identical to a single global binary heap: (at, seq) ascending.
// Within one bucket all events share the same cycle, and appends happen in
// strictly increasing seq order (seq is monotonic), so bucket FIFO order is
// seq order.
//
// Invariants, relied on throughout:
//
//  1. cur never exceeds the earliest queued event: peek advances cur to the
//     head's time, and the engine's no-scheduling-into-the-past checks keep
//     every push at or after the simulation clock, which trails cur. (peek
//     may advance cur ahead of the clock, but nothing pushes between a peek
//     and the pop or dispatch that follows it.)
//  2. Every wheel event lies in [cur, cur+wheelSize): it was pushed inside
//     the window, and the window only slides forward, never past an unpopped
//     event (by invariant 1).
//  3. A nonempty bucket holds exactly one distinct time: two same-index
//     times differ by at least wheelSize, which invariant 2 rules out.
//
// Together these give: scanning the bitmap upward from cur yields the
// earliest wheel event, and one (at, seq) comparison against the heap head
// picks the global minimum.
const (
	wheelBits = 12
	wheelSize = 1 << wheelBits // cycles covered by the wheel, one bucket each
	wheelMask = wheelSize - 1
	// wheelWords must be exactly 64 so the one-word summary bitmap below
	// covers every bucket word; change wheelBits and this breaks.
	wheelWords = wheelSize / 64
	// bucketCap is the fixed per-bucket capacity, carved from one shared
	// slab so a fresh queue costs one allocation. Buckets never grow: a
	// cycle with more events spills the excess to the overflow heap, keeping
	// the schedule path allocation-free at any fan-in.
	bucketCap = 4
)

// headIdx sentinels (values >= 0 name a wheel bucket).
const (
	headUnknown  = -1 // no verified head; the next peek locates it
	headOverflow = -2 // the verified head is the overflow heap's top
)

type eventQueue struct {
	size       int  // events queued in total (wheel + overflow)
	wheelCount int  // events currently in wheel buckets
	cur        Time // scan cursor; no queued event is earlier (invariant 1)
	headIdx    int  // where the peeked head event lives
	buckets    [][]event
	heads      []int32 // per-bucket FIFO read position
	bitmap     [wheelWords]uint64
	summary    uint64 // bit w set iff bitmap[w] != 0
	overflow   eventHeap
}

func (q *eventQueue) init() {
	q.headIdx = headUnknown
	q.buckets = make([][]event, wheelSize)
	q.heads = make([]int32, wheelSize)
	slab := make([]event, wheelSize*bucketCap)
	for i := range q.buckets {
		q.buckets[i] = slab[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
}

// push enqueues e. The caller guarantees e.at >= q.cur (the engine's
// no-scheduling-into-the-past checks enforce it).
func (q *eventQueue) push(e event) {
	q.size++
	q.headIdx = headUnknown
	if e.at-q.cur < wheelSize {
		i := int(e.at & wheelMask)
		if b := q.buckets[i]; len(b) < cap(b) {
			q.buckets[i] = append(b, e)
			q.bitmap[i>>6] |= 1 << uint(i&63)
			q.summary |= 1 << uint(i>>6)
			q.wheelCount++
			return
		}
	}
	q.overflow.push(e)
}

// peek returns the queue's head event — minimal (at, seq) — without removing
// it. The returned pointer is valid until the next push or popHead. The
// queue must be nonempty.
func (q *eventQueue) peek() *event {
	if q.headIdx == headUnknown {
		q.locateHead()
	}
	if q.headIdx == headOverflow {
		return &q.overflow[0]
	}
	return &q.buckets[q.headIdx][q.heads[q.headIdx]]
}

// locateHead finds the head event and advances cur to its time.
func (q *eventQueue) locateHead() {
	if q.wheelCount == 0 {
		q.cur = q.overflow[0].at
		q.headIdx = headOverflow
		return
	}
	i := q.nextIdx(int(q.cur & wheelMask))
	e := &q.buckets[i][q.heads[i]]
	if len(q.overflow) > 0 {
		if o := &q.overflow[0]; o.at < e.at || (o.at == e.at && o.seq < e.seq) {
			q.cur = o.at
			q.headIdx = headOverflow
			return
		}
	}
	q.cur = e.at
	q.headIdx = i
}

// anyBy reports whether an event is queued at or before t, which must not
// precede cur. Unlike peek it moves neither cur nor the cached head.
func (q *eventQueue) anyBy(t Time) bool {
	if len(q.overflow) > 0 && q.overflow[0].at <= t {
		return true
	}
	if q.wheelCount == 0 {
		return false
	}
	if t-q.cur >= wheelSize {
		return true // every wheel event lies before cur+wheelSize (invariant 2)
	}
	c := int(q.cur & wheelMask)
	return Time((q.nextIdx(c)-c)&wheelMask) <= t-q.cur
}

// nextIdx returns the index of the first nonempty bucket at or after idx in
// cyclic window order. The wheel must be nonempty.
func (q *eventQueue) nextIdx(idx int) int {
	w, b := idx>>6, uint(idx&63)
	if word := q.bitmap[w] & (^uint64(0) << b); word != 0 {
		return w<<6 | bits.TrailingZeros64(word)
	}
	// Rotate the summary so bit 0 is word w+1: the first set bit is then the
	// cyclic distance-1 to the next nonempty word. The wheel being nonempty
	// guarantees a set bit (word w itself appears at position 63, covering
	// the full-wrap case where the only remaining events are below b in w).
	r := bits.RotateLeft64(q.summary, -(w + 1))
	w2 := (w + 1 + bits.TrailingZeros64(r)) & (wheelWords - 1)
	return w2<<6 | bits.TrailingZeros64(q.bitmap[w2])
}

// popHead removes the event returned by the immediately preceding peek.
func (q *eventQueue) popHead() {
	if q.headIdx == headOverflow {
		q.overflow.pop()
		q.size--
		q.headIdx = headUnknown
		return
	}
	i := q.headIdx
	h := q.heads[i]
	b := q.buckets[i]
	b[h] = event{} // drop pointers for GC; the slot is recycled
	h++
	if int(h) == len(b) {
		q.buckets[i] = b[:0]
		q.heads[i] = 0
		q.bitmap[i>>6] &^= 1 << uint(i&63)
		if q.bitmap[i>>6] == 0 {
			q.summary &^= 1 << uint(i>>6)
		}
	} else {
		q.heads[i] = h
	}
	q.wheelCount--
	q.size--
	q.headIdx = headUnknown
}

// pop removes and returns the head event.
func (q *eventQueue) pop() event {
	e := *q.peek()
	q.popHead()
	return e
}

// eventHeap is a binary min-heap ordered by (at, seq): the overflow store for
// events beyond the wheel's window or past their bucket's capacity.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}
