package engine

// eventHeap is the event queue: a binary min-heap ordered by (at, seq)
// ascending. seq is monotonic, so events of one cycle run in the order they
// were scheduled. The queue is short — on the ten bench apps it never holds
// more than 31 events, 7.5 to 8.8 on average at a push — so the whole heap
// stays in L1 and the backing array, grown by append and reused after that,
// keeps the schedule path allocation-free.
type eventHeap []event

// before reports whether a precedes b in dispatch order.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push enqueues e, moving it up from the tail past every later event.
func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&e, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// peek returns the head event — minimal (at, seq) — without removing it. The
// returned pointer is valid until the next push or popHead. The queue must
// be nonempty.
func (h eventHeap) peek() *event { return &h[0] }

// popHead removes the head event: the tail event moves down from the root
// past every earlier event.
func (h *eventHeap) popHead() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop pointers for GC; the slot is reused
	q = q[:n]
	*h = q
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&q[r], &q[c]) {
			c = r
		}
		if !before(&q[c], &last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
}

// anyBy reports whether an event is queued at or before t.
func (h eventHeap) anyBy(t Time) bool { return len(h) > 0 && h[0].at <= t }
