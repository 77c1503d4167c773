package network

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"svmsim/internal/engine"
	"svmsim/internal/memsys"
)

// call adapts a closure to an engine.EventTarget, so a test can schedule it
// with AtTarget.
type call func()

func (c call) HandleEvent(any) { c() }

func testParams() *Params {
	return &Params{
		HostOverheadCycles: 500,
		NIOccupancyCycles:  1000,
		IOBytesPerCycle:    0.5,
		LinkBytesPerCycle:  2.0,
		LinkLatencyCycles:  50,
		MaxPacketBytes:     2048,
		HeaderBytes:        32,
	}
}

// pair builds a two-node network, returning both NIs and the sim. deliver is
// installed on both sides; it never blocks, so it runs in scheduler context.
func pair(s *engine.Sim, p *Params, deliver func(t *engine.Thread, m *Message)) (*NI, *NI) {
	var up Deliver
	if deliver != nil {
		up = func(t *engine.Thread, m *Message) bool { deliver(t, m); return true }
	}
	mk := func(id int) *NI {
		io := engine.NewResource(s, "io")
		bus := memsys.NewBus(s, "bus", 8, 4, 1, 1, 28)
		return NewNI(s, id, p, io, bus, up)
	}
	a, b := mk(0), mk(1)
	peers := []*NI{a, b}
	a.SetPeers(peers)
	b.SetPeers(peers)
	return a, b
}

func TestPacketsAndWireBytes(t *testing.T) {
	p := testParams()
	cases := []struct {
		payload, packets, wire int
	}{
		{0, 1, 32},
		{1, 1, 33},
		{2048, 1, 2080},
		{2049, 2, 2113},
		{4096, 2, 4160},
		{8192, 4, 8320},
	}
	for _, c := range cases {
		if got := p.Packets(c.payload); got != c.packets {
			t.Errorf("Packets(%d)=%d want %d", c.payload, got, c.packets)
		}
		if got := p.WireBytes(c.payload); got != c.wire {
			t.Errorf("WireBytes(%d)=%d want %d", c.payload, got, c.wire)
		}
	}
}

func TestMessageDelivered(t *testing.T) {
	s := engine.New()
	var got *Message
	var at engine.Time
	a, _ := pair(s, testParams(), func(_ *engine.Thread, m *Message) {
		got = m
		at = s.Now()
	})
	delivered := false
	s.Spawn("sender", func(th *engine.Thread) {
		a.Post(th, &Message{Kind: PageRequest, Src: 0, Dst: 1, SrcProc: 3, Size: 64,
			OnDelivered: func() { delivered = true }})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Kind != PageRequest || got.SrcProc != 3 {
		t.Fatalf("bad delivery: %+v", got)
	}
	if !delivered {
		t.Fatal("OnDelivered not called")
	}
	if at == 0 {
		t.Fatal("delivery cannot be instantaneous")
	}
	// Sanity on the latency composition: 2x occupancy (1000) + 2x I/O bus
	// (96B wire @0.5B/cyc = 192) + link (50 + 48) + DMA both sides.
	if at < 2000 {
		t.Fatalf("delivery at %d, expected >= 2 NI occupancies", at)
	}
}

func TestZeroCostParametersStillDeliver(t *testing.T) {
	s := engine.New()
	p := testParams()
	p.NIOccupancyCycles = 0
	p.LinkLatencyCycles = 0
	n := 0
	a, _ := pair(s, p, func(_ *engine.Thread, m *Message) { n++ })
	s.Spawn("sender", func(th *engine.Thread) {
		a.Post(th, &Message{Kind: Diff, Src: 0, Dst: 1, Size: 0})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered %d messages, want 1", n)
	}
}

// TestDeclinedDeliveryRunsOnTheReceiveThread: a delivery the upcall
// declines in scheduler context runs again on the receive thread's
// coroutine, and the burst goes on there through the same continuation.
// Declining every delivery, on the plain and the reliable path, delivers the
// same messages at the same cycles with the same events as declining none,
// at the price of switches. A delivery that blocks there holds up the
// deliveries behind it.
func TestDeclinedDeliveryRunsOnTheReceiveThread(t *testing.T) {
	type outcome struct {
		log    string
		counts engine.Counts
	}
	run := func(reliable bool, decline func(m *Message) bool, block engine.Time) outcome {
		s := engine.New()
		p := testParams()
		if reliable {
			p.Reliable = ReliableParams{Enabled: true, RetryTimeoutCycles: 20_000}
			p.Fault = &FaultPlan{Seed: 7, Default: LinkFaults{DropPerMille: 200}}
		}
		var log []string
		up := func(th *engine.Thread, m *Message) bool {
			if th == nil && decline(m) {
				return false
			}
			if th != nil && block > 0 {
				th.Delay(block)
			}
			log = append(log, fmt.Sprintf("%v@%d", m.Payload, s.Now()))
			return true
		}
		mk := func(id int) *NI {
			return NewNI(s, id, p, engine.NewResource(s, "io"), memsys.NewBus(s, "bus", 8, 4, 1, 1, 28), up)
		}
		a, b := mk(0), mk(1)
		a.SetPeers([]*NI{a, b})
		b.SetPeers([]*NI{a, b})
		// Posts from callbacks, in bursts and gaps, so no sender thread
		// switches.
		var at engine.Time
		for i := 0; i < 12; i++ {
			m := &Message{Kind: Diff, Src: 0, Dst: 1, Size: 64 * (i % 5), Payload: i}
			s.AtTarget(at, call(func() { a.Post(nil, m) }), nil)
			at += engine.Time(3000 * (i % 3))
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return outcome{strings.Join(log, " "), s.Counts()}
	}
	none := func(*Message) bool { return false }
	all := func(*Message) bool { return true }
	for _, reliable := range []bool{false, true} {
		plain, declined := run(reliable, none, 0), run(reliable, all, 0)
		if declined.log != plain.log || declined.counts.Events != plain.counts.Events ||
			declined.counts.Switches <= plain.counts.Switches {
			t.Errorf("reliable=%v: declining every delivery ran\n%s %+v\nwant\n%s %+v with more switches",
				reliable, declined.log, declined.counts, plain.log, plain.counts)
		}
		if plain.counts.Switches != 0 {
			t.Errorf("reliable=%v: %d switches declining nothing, want none", reliable, plain.counts.Switches)
		}
	}
	odd := func(m *Message) bool { return m.Payload.(int)%2 == 1 }
	blocked := run(false, odd, 5000)
	var at []engine.Time
	for i, f := range strings.Fields(blocked.log) {
		var id int
		var when engine.Time
		if _, err := fmt.Sscanf(f, "%d@%d", &id, &when); err != nil || id != i {
			t.Fatalf("delivery %d reads %q in %s", i, f, blocked.log)
		}
		at = append(at, when)
	}
	for i := 2; i < len(at); i += 2 {
		if at[i] < at[i-1] {
			t.Errorf("delivery %d at %d overtook the blocked delivery %d at %d", i, at[i], i-1, at[i-1])
		}
	}
	if len(at) != 12 || at[11]-at[0] < 6*5000 {
		t.Errorf("deliveries %v: want 12, six blocked for 5000 cycles each", at)
	}
}

func TestFIFOPerPair(t *testing.T) {
	s := engine.New()
	var order []int
	a, _ := pair(s, testParams(), func(_ *engine.Thread, m *Message) {
		order = append(order, m.Payload.(int))
	})
	s.Spawn("sender", func(th *engine.Thread) {
		for i := 0; i < 5; i++ {
			a.Post(th, &Message{Kind: Diff, Src: 0, Dst: 1, Size: 128 * (5 - i), Payload: i})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("got %d messages", len(order))
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("out of order: %v", order)
		}
	}
}

func TestOccupancyScalesWithPackets(t *testing.T) {
	// A 4-packet message should take roughly 4x the NI occupancy of a
	// 1-packet message when occupancy dominates.
	run := func(size int) engine.Time {
		s := engine.New()
		p := testParams()
		p.NIOccupancyCycles = 10000
		p.IOBytesPerCycle = 1000 // make everything else negligible
		p.LinkLatencyCycles = 0
		var at engine.Time
		a, _ := pair(s, p, func(_ *engine.Thread, m *Message) { at = s.Now() })
		s.Spawn("sender", func(th *engine.Thread) {
			a.Post(th, &Message{Kind: PageReply, Src: 0, Dst: 1, Size: size})
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	one := run(1024)  // 1 packet
	four := run(8192) // 4 packets
	ratio := float64(four) / float64(one)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("occupancy scaling ratio %.2f, want ~4 (one=%d four=%d)", ratio, one, four)
	}
}

func TestIOBandwidthLimitsTransfer(t *testing.T) {
	run := func(bw float64) engine.Time {
		s := engine.New()
		p := testParams()
		p.NIOccupancyCycles = 0
		p.LinkLatencyCycles = 0
		p.IOBytesPerCycle = bw
		var at engine.Time
		a, _ := pair(s, p, func(_ *engine.Thread, m *Message) { at = s.Now() })
		s.Spawn("sender", func(th *engine.Thread) {
			a.Post(th, &Message{Kind: PageReply, Src: 0, Dst: 1, Size: 4096})
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	slow := run(0.05)
	fast := run(2.0)
	if slow <= fast {
		t.Fatalf("lower bandwidth must be slower: slow=%d fast=%d", slow, fast)
	}
	// 40x bandwidth gap should produce a large latency gap on a 4 KB page.
	if float64(slow)/float64(fast) < 10 {
		t.Fatalf("bandwidth effect too weak: slow=%d fast=%d", slow, fast)
	}
}

func TestBidirectionalShareIOBus(t *testing.T) {
	// Node 1 both receives a big message and sends one; its single I/O bus
	// must serialize the two directions.
	s := engine.New()
	p := testParams()
	p.NIOccupancyCycles = 0
	p.LinkLatencyCycles = 0
	done := 0
	a, b := pair(s, p, func(_ *engine.Thread, m *Message) { done++ })
	var end engine.Time
	s.Spawn("a-sender", func(th *engine.Thread) {
		a.Post(th, &Message{Kind: PageReply, Src: 0, Dst: 1, Size: 65536})
	})
	s.Spawn("b-sender", func(th *engine.Thread) {
		b.Post(th, &Message{Kind: PageReply, Src: 1, Dst: 0, Size: 65536})
	})
	s.AtTarget(1, call(func() {}), nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	end = s.Now()
	// Each 64 KB transfer at 0.5 B/cycle is ~133k cycles per I/O crossing;
	// node 1 crosses twice (send + receive) on one bus, so the run must take
	// well over a single crossing.
	if done != 2 {
		t.Fatalf("delivered %d", done)
	}
	if end < 250000 {
		t.Fatalf("end=%d; I/O bus sharing between directions not modeled", end)
	}
}

func TestPostPanicsOnBadRouting(t *testing.T) {
	s := engine.New()
	a, _ := pair(s, testParams(), nil)
	s.Spawn("sender", func(th *engine.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for self-send")
			}
		}()
		a.Post(th, &Message{Src: 0, Dst: 0})
	})
	_ = s.Run()
}

// TestPropertyAllMessagesDelivered sends random message batches between two
// nodes and checks conservation: every posted message is delivered exactly
// once and byte accounting matches on both ends.
func TestPropertyAllMessagesDelivered(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		s := engine.New()
		p := testParams()
		delivered := 0
		var recvBytes uint64
		a, b := pair(s, p, func(_ *engine.Thread, m *Message) {
			delivered++
		})
		var sentWire uint64
		s.Spawn("sender", func(th *engine.Thread) {
			for i, sz := range sizes {
				src, dst, ni := 0, 1, a
				if i%2 == 1 {
					src, dst, ni = 1, 0, b
				}
				sentWire += uint64(p.WireBytes(int(sz)))
				ni.Post(th, &Message{Kind: Diff, Src: src, Dst: dst, Size: int(sz)})
				th.Delay(engine.Time(sz % 97))
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		recvBytes = a.BytesRecv + b.BytesRecv
		return delivered == len(sizes) &&
			a.MsgsSent+b.MsgsSent == uint64(len(sizes)) &&
			a.MsgsRecv+b.MsgsRecv == uint64(len(sizes)) &&
			recvBytes == sentWire &&
			a.BytesSent+b.BytesSent == sentWire
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueBackpressure floods a tiny outgoing queue and checks the posting
// thread is stalled (the paper's queue-fill behavior) while every message is
// still delivered.
func TestQueueBackpressure(t *testing.T) {
	s := engine.New()
	p := testParams()
	p.QueueBytes = 4096 // tiny: a couple of messages
	delivered := 0
	a, _ := pair(s, p, func(_ *engine.Thread, m *Message) { delivered++ })
	s.Spawn("flooder", func(th *engine.Thread) {
		for i := 0; i < 20; i++ {
			a.Post(th, &Message{Kind: Update, Src: 0, Dst: 1, Size: 2000})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 20 {
		t.Fatalf("delivered %d/20", delivered)
	}
	if a.QueueStalls == 0 {
		t.Fatal("no queue stalls recorded despite tiny queue")
	}
}

// TestQueueUnboundedByDefault: the default 1 MB queue absorbs a modest burst
// without stalling.
func TestQueueUnboundedByDefault(t *testing.T) {
	s := engine.New()
	p := testParams()
	a, _ := pair(s, p, nil)
	s.Spawn("burst", func(th *engine.Thread) {
		for i := 0; i < 50; i++ {
			a.Post(th, &Message{Kind: Diff, Src: 0, Dst: 1, Size: 1000})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a.QueueStalls != 0 {
		t.Fatalf("unexpected stalls: %d", a.QueueStalls)
	}
}
