package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"svmsim"
	"svmsim/internal/exp"
)

// sweepFigures are the figures the sweep workload regenerates: the host
// overhead, interrupt cost, AURC occupancy and clustering sweeps. Together
// they cover uniprocessor cells, 1 to 8 processors per node and both
// protocols, and share many cells through the suite's memo.
var sweepFigures = []struct {
	id  string
	gen func(*exp.Suite) (*exp.Table, error)
}{
	{"Figure 5", (*exp.Suite).Figure5},
	{"Figure 10", (*exp.Suite).Figure10},
	{"Figure 12", (*exp.Suite).Figure12},
	{"Figure 14", (*exp.Suite).Figure14},
}

// sweepSession regenerates figures on one exp.Suite, the way
// cmd/experiments does, with Parallelism = nproc and no disk cache. One op
// is one figure; the latency samples are the suite's simulations.
type sweepSession struct {
	r       *round
	suite   *exp.Suite
	cells   map[string]exp.Cell
	workers int

	timing  atomic.Bool  // count suite events only inside the timed region
	figure  atomic.Int64 // index in sweepFigures of the figure being generated
	figSpan atomic.Int64 // its span id

	mu        sync.Mutex
	simulated map[string]int // simulated cell key -> index of its figure
	failed    map[int]bool   // figures whose table or cells mismatch
}

func openSweep(r *round) (session, error) {
	s := &sweepSession{r: r, suite: exp.NewSuite(exp.Small), workers: runtime.NumCPU(),
		simulated: map[string]int{}, failed: map[int]bool{}}
	s.suite.Parallelism = s.workers
	var specs []exp.CellSpec
	for _, f := range sweepFigures {
		specs = append(specs, figureSpecs(f.id)...)
	}
	cells, err := resolveAll(s.suite, specs)
	if err != nil {
		return nil, err
	}
	s.cells = map[string]exp.Cell{}
	for _, c := range cells {
		s.cells[c.cell.Key()] = c.cell
	}
	s.suite.Observe = s.observe
	// One untimed simulation outside the suite lets the heap reach its
	// working size before the first figure is timed.
	base := s.suite.Base()
	if _, err := svmsim.Run(base, svmsim.FFT(svmsim.FFTSmall())); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// pass regenerates every figure once, in seeded order. The suite is the
// session's, so a sweep round runs exactly one pass: a second would be all
// memo hits.
func (s *sweepSession) pass(p int) error {
	r := s.r
	s.timing.Store(true)
	defer s.timing.Store(false)
	for _, i := range order(len(sweepFigures), r.spec.Seed, r.spec.Round, p) {
		if !r.begin() {
			return nil
		}
		fig := sweepFigures[i]
		op := r.trace.id()
		s.figure.Store(int64(i))
		s.figSpan.Store(op)
		start := time.Now()
		tbl, err := fig.gen(s.suite)
		end := time.Now()
		r.trace.add(op, 0, op, "figure "+fig.id, start, end)
		r.add("exp.worker_s", end.Sub(start).Seconds()*float64(s.workers))
		if err == nil {
			err = r.golden.check("table "+fig.id, []byte(tbl.String()))
		}
		if err != nil {
			s.markFailed(i, err)
		}
	}
	return nil
}

// observe receives every cell the suite serves.
func (s *sweepSession) observe(ev exp.CellEvent) {
	if !s.timing.Load() {
		return
	}
	countCell(s.r, ev, s.figSpan.Load())
	if ev.Source == exp.SourceSim {
		s.r.sample("op_ms", ev.Seconds*1e3)
		s.mu.Lock()
		s.simulated[ev.Key] = int(s.figure.Load())
		s.mu.Unlock()
	}
}

// countCell adds one cell served by an exp.Suite to the exp counters, and
// traces a fresh simulation as a child of span.
func countCell(r *round, ev exp.CellEvent, span int64) {
	r.add("exp.served", 1)
	switch ev.Source {
	case exp.SourceMemo:
		r.add("exp.memo", 1)
	case exp.SourceFlight:
		r.add("exp.flight", 1)
	case exp.SourceSim:
		end := time.Now()
		r.add("exp.simulated", 1)
		r.add("exp.sim_s", ev.Seconds)
		r.sample("exp.sim_ms", ev.Seconds*1e3)
		r.trace.add(r.trace.id(), span, span, "cell sim", end.Add(-time.Duration(ev.Seconds*1e9)), end)
	}
}

// recordRetained measures the heap a live suite retains after a GC.
func recordRetained(r *round) {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.add("exp.retained_mb", float64(mem.HeapAlloc)/1e6)
}

// close checks every simulated cell against its golden digest (the memo
// serves them again, outside the timed region), measures the heap the live
// suite retains, and counts each figure with a mismatch as one failed op.
func (s *sweepSession) close() error {
	r := s.r
	recordRetained(r)
	for key, fig := range s.simulated {
		c, ok := s.cells[key]
		var err error
		if !ok {
			err = fmt.Errorf("simulated cell %q is not among the figures' listed cells", key)
		}
		var run *svmsim.RunStats
		if err == nil {
			run, err = s.suite.RunCell(c)
		}
		var doc []byte
		if err == nil {
			doc, err = cellDoc(key, run)
		}
		if err == nil {
			err = r.golden.check("cell "+key, doc)
		}
		if err != nil {
			s.markFailed(fig, err)
			continue
		}
		addSimCounters(r, run)
	}
	for range s.failed {
		r.fail("%s: figure output differs from golden (see above)", r.spec.Workload)
	}
	return nil
}

func (s *sweepSession) markFailed(fig int, err error) {
	fmt.Fprintf(os.Stderr, "svmbench: sweep: %v\n", err)
	s.mu.Lock()
	s.failed[fig] = true
	s.mu.Unlock()
}
