package trace_test

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"svmsim/internal/engine"
	"svmsim/internal/machine"
	"svmsim/internal/shm"
	"svmsim/internal/stats"
	"svmsim/internal/trace"
)

func TestRecorderCapacityAndDump(t *testing.T) {
	r := trace.NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Emit(engine.Time(i*10), int32(i), trace.FetchStart, int64(i), 0)
	}
	if len(r.Events) != 3 || r.Dropped != 2 {
		t.Fatalf("events=%d dropped=%d", len(r.Events), r.Dropped)
	}
	var b bytes.Buffer
	r.Dump(&b, 2)
	out := b.String()
	if !strings.Contains(out, "fetch-start") || !strings.Contains(out, "dropped") {
		t.Fatalf("dump:\n%s", out)
	}
	if strings.Count(out, "fetch-start") != 2 {
		t.Fatalf("dump should show last 2 events:\n%s", out)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *trace.Recorder
	r.Emit(1, 0, trace.Diff, 0, 0) // must not panic
}

func TestLatencyPairing(t *testing.T) {
	r := trace.NewRecorder(100)
	r.Emit(100, 1, trace.FetchStart, 7, 0)
	r.Emit(150, 2, trace.FetchStart, 7, 0) // different proc, same page
	r.Emit(250, 1, trace.FetchEnd, 7, 0)
	r.Emit(400, 2, trace.FetchEnd, 7, 0)
	r.Emit(500, 3, trace.FetchStart, 9, 0) // unmatched
	lats := r.Latencies(trace.FetchStart, trace.FetchEnd)
	if len(lats) != 2 || lats[0] != 150 || lats[1] != 250 {
		t.Fatalf("latencies=%v", lats)
	}
}

func TestPercentile(t *testing.T) {
	xs := []uint64{50, 10, 40, 20, 30}
	if p := trace.Percentile(xs, 0); p != 10 {
		t.Errorf("p0=%d", p)
	}
	if p := trace.Percentile(xs, 50); p != 30 {
		t.Errorf("p50=%d", p)
	}
	if p := trace.Percentile(xs, 100); p != 50 {
		t.Errorf("p100=%d", p)
	}
	if p := trace.Percentile(nil, 50); p != 0 {
		t.Errorf("empty=%d", p)
	}
}

// TestPercentileProperty: result is always an element and monotone in p.
func TestPercentileProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]uint64, len(raw))
		member := map[uint64]bool{}
		for i, v := range raw {
			xs[i] = uint64(v)
			member[uint64(v)] = true
		}
		last := uint64(0)
		for p := 0.0; p <= 100; p += 10 {
			v := trace.Percentile(xs, p)
			if !member[v] || v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndTraceBalance runs a real workload with tracing and checks the
// recorded event stream is internally consistent and agrees with the run's
// counters: fetches and lock acquires pair up, barrier enters equal exits,
// and there is one interrupt event per counted interrupt. Besides the
// baseline it runs the AllLocal ablation, whose faults are served without a
// fetch, NI-served page requests, which interrupt no host, and the failure
// detector, whose heartbeat rounds interrupt every node.
func TestEndToEndTraceBalance(t *testing.T) {
	type st struct {
		addr shm.Addr
		lock int
	}
	app := machine.App{
		Name: "traced",
		Setup: func(w *shm.World) any {
			return st{addr: w.AllocPages(64 << 10), lock: w.NewLock()}
		},
		Body: func(c *shm.Proc, state any) {
			sx := state.(st)
			for i := 0; i < 30; i++ {
				c.Lock(sx.lock)
				a := sx.addr + shm.Addr((i%512)*8)
				c.WriteU64(a, c.ReadU64(a)+1)
				c.Unlock(sx.lock)
			}
			c.Barrier()
		},
	}
	for _, tc := range []struct {
		name string
		set  func(*machine.Config)
	}{
		{"baseline", func(*machine.Config) {}},
		{"all-local", func(c *machine.Config) { c.Proto.AllLocal = true }},
		{"ni-serve", func(c *machine.Config) { c.NIServePages = true }},
		{"detector", func(c *machine.Config) { c.Proto.HeartbeatIntervalCycles = 50_000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewRecorder(1 << 20)
			cfg := machine.Achievable()
			cfg.Procs = 8
			cfg.ProcsPerNode = 2
			cfg.HeapBytes = 1 << 20
			cfg.Trace = rec
			tc.set(&cfg)
			res, err := machine.Run(cfg, app)
			if err != nil {
				t.Fatal(err)
			}
			counts := rec.Counts()
			if counts[trace.AcquireStart] != counts[trace.AcquireEnd] {
				t.Errorf("acquire start/end mismatch: %d vs %d", counts[trace.AcquireStart], counts[trace.AcquireEnd])
			}
			if counts[trace.AcquireStart] != counts[trace.Release] {
				t.Errorf("acquire/release mismatch: %d vs %d", counts[trace.AcquireStart], counts[trace.Release])
			}
			if counts[trace.FetchStart] == 0 || counts[trace.FetchStart] != counts[trace.FetchEnd] {
				t.Errorf("fetch start/end mismatch: %d vs %d", counts[trace.FetchStart], counts[trace.FetchEnd])
			}
			if counts[trace.BarrierEnter] != counts[trace.BarrierExit] {
				t.Errorf("barrier enter/exit mismatch: %d vs %d", counts[trace.BarrierEnter], counts[trace.BarrierExit])
			}
			interrupts := res.Run.Sum(func(p *stats.Proc) uint64 { return p.Interrupts })
			if uint64(counts[trace.Interrupt]) != interrupts {
				t.Errorf("interrupt events = %d, counted interrupts = %d", counts[trace.Interrupt], interrupts)
			}
			if cfg.Proto.HeartbeatIntervalCycles != 0 && res.Run.Recovery.HeartbeatsSent == 0 {
				t.Error("the detector sent no heartbeats")
			}
			if counts[trace.AcquireStart] != 8*30 {
				t.Errorf("acquires=%d want 240", counts[trace.AcquireStart])
			}
			// Latency extraction works on the real stream.
			if lats := rec.Latencies(trace.AcquireStart, trace.AcquireEnd); len(lats) != 240 {
				t.Errorf("paired %d acquire latencies", len(lats))
			}
			var b bytes.Buffer
			rec.Summary(&b)
			if !strings.Contains(b.String(), "lock acquire cycles") {
				t.Errorf("summary:\n%s", b.String())
			}
		})
	}
}
