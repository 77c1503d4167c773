package proto

import "svmsim/internal/network"

// Protocol messages, their payloads and the slices they carry come from
// slabs: chunks of values handed out one at a time. Nothing taken from a
// slab is ever released or reused. A spent chunk is dropped, and the
// collector frees it once none of its values is reachable. That needs no
// ownership rule, which a message could not follow: the reliable layer
// re-reads a delivered message when it retransmits it, and a duplicating
// fault plan delivers the same *network.Message twice.
//
// A chunk keeps every value handed out from it reachable, and with them
// whatever they point at, until its last value is dropped. So a message
// whose payload holds a page-sized buffer (a page reply, an AURC update) is
// allocated on its own (ownMsg): in a chunk, it would keep the buffers of
// the chunk's other messages alive.

// slabChunk is the number of values in one chunk of a slab, kept small
// because one live value keeps its whole chunk; a sliceSlab's chunks hold at
// least four times as many elements.
const slabChunk = 32

// slab hands out values of T.
type slab[T any] struct{ free []T }

// new returns a pointer to a copy of v.
func (s *slab[T]) new(v T) *T {
	if len(s.free) == 0 {
		s.free = make([]T, slabChunk)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	*p = v
	return p
}

// envelope is a protocol message and its typed payload in one value: the
// message's Payload points at body.
type envelope[T any] struct {
	msg  network.Message
	body T
}

// newMsg returns m with its payload body, from s.
func newMsg[T any](s *slab[envelope[T]], m network.Message, body T) *network.Message {
	e := s.new(envelope[T]{msg: m, body: body})
	e.msg.Payload = &e.body
	return &e.msg
}

// ownMsg returns m with its payload body, in one allocation of its own.
func ownMsg[T any](m network.Message, body T) *network.Message {
	e := &envelope[T]{msg: m, body: body}
	e.msg.Payload = &e.body
	return &e.msg
}

// sliceSlab carves exact copies of slices from shared chunks. A copy's
// capacity is its length, so an append to it never writes into a
// neighbour.
type sliceSlab[T any] struct{ free []T }

// copyOf returns a copy of src, or nil for an empty src.
func (s *sliceSlab[T]) copyOf(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		s.free = make([]T, max(n, 4*slabChunk))
	}
	out := s.free[:n:n]
	copy(out, src)
	s.free = s.free[n:]
	return out
}

// slabs holds a System's slabs: one per payload type of the messages they
// make, one for messages without a payload, and one per kind of slice a
// message carries.
type slabs struct {
	msgs      slab[network.Message]
	pageReqs  slab[envelope[pageReq]]
	lockReqs  slab[envelope[lockReqMsg]]
	grants    slab[envelope[lockGrantMsg]]
	owners    slab[envelope[lockOwnerMsg]]
	diffs     slab[envelope[diffMsg]]
	arrivals  slab[envelope[barrierArriveMsg]]
	releases  slab[envelope[barrierReleaseMsg]]
	int32s    slab[envelope[int32]] // a diff ack's page, a reconfiguration's dead node
	clocks    sliceSlab[uint32]
	notices   sliceSlab[Notice]
	pages     sliceSlab[int32]
	diffOffs  sliceSlab[uint16]
	diffWords sliceSlab[uint64]
}
