package exp

import (
	"fmt"

	"svmsim"
)

// CrashFractions places the node death as a fraction of each application's
// fault-free parallel execution time, so every workload is hit mid-run
// regardless of its absolute length.
var CrashFractions = []struct{ Num, Den uint64 }{{1, 4}, {1, 2}}

// HeartbeatPoints is the failure-detector interval sweep, in cycles. The
// short interval detects deaths quickly but steals interrupt and handler
// time from every survivor on every round (the paper's interrupt-cost axis);
// the long one is cheap but leaves the cluster stalled on the dead node for
// longer before recovery.
var HeartbeatPoints = []uint64{50_000, 200_000}

// NodeCrash evaluates degraded-mode end performance under crash-stop node
// failures: the last node dies mid-run, the heartbeat detector declares it,
// recovery re-homes its pages, and the surviving processors finish the
// computation. Columns report the fault-free baseline, the detector's pure
// overhead (heartbeats with nobody dying), the degraded-mode speedup for
// each crash time x detector interval, and the recovery-cost breakdown of
// the half-time crash under the aggressive detector. Cells whose only valid
// copy of a page died with the node (or that otherwise fail) render as NaN
// instead of erasing the row: partial data loss is an expected outcome of a
// crash, not a sweep failure. The subset pairs two bandwidth-bound
// applications with two interrupt-bound ones, as in the DropRate experiment.
func (s *Suite) NodeCrash() (*Table, error) {
	t := &Table{ID: "NodeCrash",
		Title: "Degraded-mode speedup after a mid-run node crash vs detector interval (NaN = data lost with the node)"}
	kc := func(hb uint64) string { return fmt.Sprintf("%dk", hb/1000) }
	t.Cols = append(t.Cols, "Plain")
	for _, hb := range HeartbeatPoints {
		t.Cols = append(t.Cols, "HB:"+kc(hb))
	}
	for _, hb := range HeartbeatPoints {
		for _, fr := range CrashFractions {
			t.Cols = append(t.Cols, fmt.Sprintf("T%d/%d:%s", fr.Num, fr.Den, kc(hb)))
		}
	}
	t.Cols = append(t.Cols, "Rehomed", "SuspKc", "RecKc")

	subset := pick("FFT", "Radix", "Water-nsq", "Barnes-reb")
	nodes := s.Procs / s.PPN
	crashNode := nodes - 1

	crashCfg := func(plain, hb uint64, fr struct{ Num, Den uint64 }) svmsim.Config {
		cfg := s.Base()
		cfg.Proto.HeartbeatIntervalCycles = svmsim.Time(hb)
		cfg.MaxCycles = svmsim.Time(plain * 10)
		if fr.Den != 0 {
			cfg.Net.Crash = &svmsim.CrashPlan{
				AtCycles: map[int]svmsim.Time{crashNode: svmsim.Time(plain * fr.Num / fr.Den)},
			}
		}
		return cfg
	}

	// The plain baseline gates the rest of the row (crash times derive from
	// it), so it runs first; the crash grid then prefetches in parallel.
	for _, w := range subset {
		uni, err := s.uniTime(w)
		if err != nil {
			t.Rows = append(t.Rows, Row{Name: w.Name, Err: err.Error()})
			continue
		}
		plainRun, err := s.run(s.Base(), w)
		if err != nil {
			t.Rows = append(t.Rows, Row{Name: w.Name, Err: err.Error()})
			continue
		}
		plain := plainRun.Cycles

		var cells []Cell
		for _, hb := range HeartbeatPoints {
			cells = append(cells, Cell{Cfg: crashCfg(plain, hb, struct{ Num, Den uint64 }{}), W: w})
			for _, fr := range CrashFractions {
				cells = append(cells, Cell{Cfg: crashCfg(plain, hb, fr), W: w})
			}
		}
		_ = s.RunCells(cells)

		vals := []float64{float64(uni) / float64(plain)}
		for _, hb := range HeartbeatPoints {
			run, err := s.run(crashCfg(plain, hb, struct{ Num, Den uint64 }{}), w)
			if err != nil {
				vals = append(vals, nan())
				continue
			}
			vals = append(vals, float64(uni)/float64(run.Cycles))
		}
		rehomed, suspKc, recKc := nan(), nan(), nan()
		for _, hb := range HeartbeatPoints {
			for _, fr := range CrashFractions {
				run, err := s.run(crashCfg(plain, hb, fr), w)
				if err != nil {
					vals = append(vals, nan())
					continue
				}
				vals = append(vals, float64(uni)/float64(run.Cycles))
				if hb == HeartbeatPoints[0] && fr.Den == 2 {
					rehomed = float64(run.Recovery.PagesRehomed)
					suspKc = float64(run.Recovery.SuspectCycles) / 1000
					recKc = float64(run.Recovery.RecoveryCycles) / 1000
				}
			}
		}
		vals = append(vals, rehomed, suspKc, recKc)
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: vals})
	}
	return t, nil
}
