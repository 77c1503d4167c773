package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"svmsim"
	"svmsim/internal/exp"
)

// simSession runs serial svmsim.Run calls, one op per run, over a fixed
// list of cells in a seeded order per pass. It bypasses exp and the server.
type simSession struct {
	r     *round
	cells []exp.Cell
}

// openSim returns the set-up of a sim workload over apps under one protocol
// on the suite baseline (small sizes, achievable parameters, 16 processors
// with 4 per node).
func openSim(mode string, apps ...string) func(r *round) (session, error) {
	return func(r *round) (session, error) {
		suite := exp.NewSuite(exp.Small)
		s := &simSession{r: r}
		for _, app := range apps {
			c, err := suite.ResolveCell(exp.CellSpec{Workload: app, Mode: mode})
			if err != nil {
				return nil, err
			}
			s.cells = append(s.cells, c)
		}
		// One untimed run of each app lets the heap grow to its working size
		// before timing starts.
		for _, c := range s.cells {
			if _, err := svmsim.Run(c.Cfg, c.W.Small()); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.W.Name, err)
			}
		}
		return s, nil
	}
}

func (s *simSession) pass(p int) error {
	for _, i := range order(len(s.cells), s.r.spec.Seed, s.r.spec.Round, p) {
		if !s.r.begin() {
			return nil
		}
		s.run(s.cells[i])
	}
	return nil
}

func (s *simSession) close() error { return nil }

// run times one simulation and its four phases, then checks its output.
func (s *simSession) run(c exp.Cell) {
	r := s.r
	op := r.trace.id()
	var ph phases
	app := ph.wrap(c.W.Small())
	start := time.Now()
	res, err := svmsim.Run(c.Cfg, app)
	end := time.Now()
	r.sample("op_ms", ms(end.Sub(start)))
	r.trace.add(op, 0, op, "run "+c.W.Name, start, end)
	if err != nil {
		r.fail("%s: %v", c.W.Name, err)
		return
	}
	ph.record(r, op, start)
	doc, err := cellDoc(c.Key(), res.Run)
	if err != nil {
		r.fail("encoding %s: %v", c.W.Name, err)
		return
	}
	if err := r.golden.check("cell "+c.Key(), doc); err != nil {
		r.fail("%v", err)
		return
	}
	addSimCounters(r, res.Run)
}

// phases are the instants svmsim.Run crosses into the application's hooks:
// machine build runs from Run's entry to App.Setup, the engine from the end
// of Setup to App.Check.
type phases struct {
	setupStart, setupEnd, checkStart, checkEnd time.Time
}

// wrap returns app with its Setup and Check hooks timed.
func (ph *phases) wrap(app svmsim.App) svmsim.App {
	setup, check := app.Setup, app.Check
	app.Setup = func(w *svmsim.World) any {
		ph.setupStart = time.Now()
		st := setup(w)
		ph.setupEnd = time.Now()
		return st
	}
	app.Check = func(w *svmsim.World, st any) error {
		ph.checkStart = time.Now()
		var err error
		if check != nil {
			err = check(w, st)
		}
		ph.checkEnd = time.Now()
		return err
	}
	return app
}

func (ph *phases) record(r *round, op int64, start time.Time) {
	for _, p := range []struct {
		name     string
		from, to time.Time
	}{
		{"machine.build", start, ph.setupStart},
		{"app.setup", ph.setupStart, ph.setupEnd},
		{"engine.run", ph.setupEnd, ph.checkStart},
		{"app.check", ph.checkStart, ph.checkEnd},
	} {
		r.sample(p.name+"_ms", ms(p.to.Sub(p.from)))
		r.trace.add(r.trace.id(), op, op, p.name, p.from, p.to)
	}
}

// addSimCounters adds one simulation's modelled-design counters.
func addSimCounters(r *round, run *svmsim.RunStats) {
	p := run.Profile()
	sum := func(f func(*svmsim.ProcStats) uint64) float64 { return float64(run.Sum(f)) }
	r.add("sims", 1)
	r.add("sim.cycles", float64(run.Cycles))
	r.add("sim.interrupts", float64(p.Interrupts))
	r.add("sim.msgs", float64(p.Msgs))
	r.add("sim.bytes", float64(p.Bytes))
	r.add("sim.page_fetches", float64(p.PageFetches))
	r.add("sim.remote_locks", float64(p.RemoteLocks))
	r.add("sim.update_words", float64(p.UpdateWords))
	r.add("sim.diffs", sum(func(p *svmsim.ProcStats) uint64 { return p.DiffsCreated }))
	r.add("sim.mem_refs", sum(func(p *svmsim.ProcStats) uint64 { return p.L1Hits + p.L2Hits + p.Misses }))
	for k, name := range timeKinds {
		r.add("sim.time."+name, sum(func(p *svmsim.ProcStats) uint64 { return p.Time[k] }))
	}
}

// order is the seeded permutation of n inputs for one pass of one round. The
// seed only orders: every pass holds each input exactly once.
func order(n int, seed uint64, round, pass int) []int {
	return rand.New(rand.NewPCG(seed, uint64(round)<<32|uint64(pass))).Perm(n)
}

// shuffled is xs in the seeded order of one pass of one round.
func shuffled[T any](xs []T, seed uint64, round, pass int) []T {
	out := make([]T, len(xs))
	for i, j := range order(len(xs), seed, round, pass) {
		out[i] = xs[j]
	}
	return out
}
