// Package exp defines the paper's experiments: one function per table and
// figure of the evaluation section, each running the required parameter
// sweep over the application suite and rendering the same rows/series the
// paper reports. Runs are memoized within a Suite so sweeps sharing a
// configuration (e.g. the achievable baseline) pay for it once.
package exp

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"svmsim"
	"svmsim/internal/walltime"
)

// Size selects problem sizes for the whole suite.
type Size int

const (
	// Small uses the test-sized problems (seconds per experiment).
	Small Size = iota
	// Default uses the benchmark-sized problems (minutes per experiment).
	Default
)

// ParseSize reads a -size flag value: "small" or "default", in any letter
// case. Any other value is an error that names the valid ones.
func ParseSize(v string) (Size, error) {
	switch strings.ToLower(v) {
	case "small":
		return Small, nil
	case "default":
		return Default, nil
	}
	return Small, fmt.Errorf("unknown problem size %q (valid: small, default)", v)
}

// String spells the size as ParseSize reads it.
func (s Size) String() string {
	if s == Default {
		return "default"
	}
	return "small"
}

// Set parses a -size flag value with ParseSize, so a *Size is a
// flag.Value.
func (s *Size) Set(v string) (err error) {
	*s, err = ParseSize(v)
	return err
}

// Suite runs and memoizes experiments. It answers every cell through one
// path (RunCell): the in-memory memo or a join of the cell's in-flight
// answer, then the persistent disk cache, then the Answer hook, then a
// simulation. The memo deduplicates in-flight cells (singleflight), so a
// Suite is safe for concurrent use: experiments running their cells
// through RunCells share every cell they have in common — two figures
// built on the achievable baseline pay for it once.
type Suite struct {
	// Procs and PPN set the baseline topology (the paper: 16 processors,
	// 4 per node).
	Procs int
	PPN   int
	// Sizes selects problem sizes.
	Sizes Size
	// Parallelism bounds RunCells' worker pool. Zero or negative means
	// GOMAXPROCS; 1 forces serial execution.
	Parallelism int
	// CacheDir, when non-empty, persists every finished cell (result or
	// error) to this directory so later sweeps — including other processes —
	// start from the accumulated results instead of re-simulating. Entries
	// are keyed by the same content key as the in-memory memo and written
	// atomically (temp file + rename); see diskcache.go.
	CacheDir string
	// Observe, when non-nil, receives one CellEvent per cell request served
	// (memo hit, in-flight join, disk hit, Answer or fresh simulation); a
	// RunCells batch requests each of its unique cells once. It is the
	// suite's observability seam — the svmsimd daemon's cache-hit and
	// latency metrics and the commands' -v lines (Progress) hang off it.
	// Set it before the suite serves traffic; the callback must be safe for
	// concurrent use and cheap (it runs on the worker's path).
	Observe func(CellEvent)
	// Answer, when non-nil, is consulted for each cell after the memo and
	// disk layers miss but before local simulation. The fleet coordinator
	// installs a hook that dispatches the cell to a remote worker;
	// twin-guided sweep pruning (cmd/sweep -twin-prune) installs one that
	// answers high-confidence cells from the calibrated model. Returning
	// ok=false, or a result with neither a run nor an error, falls back to
	// local simulation, so a coordinator with no live workers degrades to a
	// plain daemon instead of failing. The hook runs inside the cell's
	// singleflight — at most one answer per cell is in progress at a time —
	// and must be safe for concurrent use across distinct cells. Set it
	// before the suite serves traffic.
	//
	// A result whose Source is SourcePredictedCell is a model prediction:
	// it is memoized in-memory (and observed as SourcePredicted) but never
	// spilled to CacheDir. The persistent cache holds only simulated truth,
	// so a later run with a different (or no) twin never mistakes a
	// prediction for a measurement. Return predictions only for runs whose
	// outputs mark predicted cells as such. Any other result is observed
	// as SourceRemote and spilled like a simulation.
	Answer func(Cell) (CellResult, bool)

	mu    sync.Mutex
	cells map[string]*entry
}

// CellSource says where a served cell result came from.
type CellSource int

const (
	// SourceMemo is an in-memory memo hit (result or cached error).
	SourceMemo CellSource = iota
	// SourceFlight joined an in-flight simulation started by another caller.
	SourceFlight
	// SourceDisk is a persistent-cache hit (CacheDir).
	SourceDisk
	// SourceSim is a fresh simulation.
	SourceSim
	// SourceRemote was served by Suite.Answer, as a fleet worker's result.
	SourceRemote
	// SourcePredicted was served by Suite.Answer as a model prediction
	// (no simulation ran; see SourcePredictedCell).
	SourcePredicted
)

// String names the source for metrics labels.
func (s CellSource) String() string {
	switch s {
	case SourceMemo:
		return "memo"
	case SourceFlight:
		return "flight"
	case SourceDisk:
		return "disk"
	case SourceSim:
		return "sim"
	case SourceRemote:
		return "remote"
	case SourcePredicted:
		return "predicted"
	}
	return fmt.Sprintf("CellSource(%d)", int(s))
}

// CellEvent describes one served cell request (see Suite.Observe).
type CellEvent struct {
	// Key is the cell's content-address (Cell.Key).
	Key string
	// Source says where the result came from.
	Source CellSource
	// Err is the cell's error, if it failed.
	Err error
	// Seconds is the wall-clock simulation time; nonzero only for
	// SourceSim (harness diagnostics, never simulated behavior).
	Seconds float64
}

// entry is one cell's answer. Its done channel is open while the first
// caller answers the cell (later callers join that flight) and closed once
// run and err are written; a closed entry is the memo.
type entry struct {
	done chan struct{}
	run  *svmsim.RunStats
	err  error
}

// NewSuite creates a suite with the paper's baseline topology.
func NewSuite(sizes Size) *Suite {
	return &Suite{Procs: 16, PPN: 4, Sizes: sizes}
}

// Base returns the achievable baseline configuration.
func (s *Suite) Base() svmsim.Config {
	cfg := svmsim.Achievable()
	cfg.Procs = s.Procs
	cfg.ProcsPerNode = s.PPN
	return cfg
}

func (s *Suite) app(w svmsim.Workload) svmsim.App {
	if s.Sizes == Default {
		return w.Default()
	}
	return w.Small()
}

func cfgKey(c svmsim.Config) string {
	key := fmt.Sprintf("p%d/n%d/ho%d/occ%d/io%g/intr%d/pg%d/mode%d/pol%d/all%v/req%d/nis%d/nisrv%v",
		c.Procs, c.ProcsPerNode, c.Net.HostOverheadCycles, c.Net.NIOccupancyCycles,
		c.Net.IOBytesPerCycle, c.IntrHalfCostCycles, c.Proto.PageBytes, c.Proto.Mode,
		c.IntrPolicy, c.Proto.AllLocal, c.Requests, c.NIsPerNode, c.NIServePages)
	// Fault-injection and reliable-delivery cells must not collide with the
	// pristine-network cells they are derived from.
	if c.Net.Fault != nil || c.Net.Reliable.Enabled || c.MaxCycles != 0 || c.StallCheckCycles != 0 {
		key += fmt.Sprintf("/flt[%s]/rel[%s]/wd%d-%d",
			c.Net.Fault.Key(), c.Net.Reliable.Key(), c.MaxCycles, c.StallCheckCycles)
	}
	// Crash-plan and failure-detector cells likewise get their own keys;
	// clean configurations keep the exact key they had before crashes
	// existed, so persistent caches stay valid.
	if c.Net.Crash != nil || c.Proto.HeartbeatIntervalCycles != 0 {
		key += fmt.Sprintf("/crash[%s]/hb%d-%d",
			c.Net.Crash.Key(), c.Proto.HeartbeatIntervalCycles, c.Proto.SuspectTimeoutCycles)
	}
	return key
}

// RunCell answers one cell: the programmatic entry point behind every
// table, sweep, cmd/sweep's -cell mode and the daemon's cell jobs. It is
// safe for concurrent use: the first caller for a key answers it while
// later callers for the same key block on the shared entry and reuse its
// answer. A cell is answered once: the simulator is deterministic, so a
// failing cell (error or panic) fails the same way on every run. Its error
// is memoized too, so an error row renders once per sweep instead of
// re-simulating for every table that shares the cell.
func (s *Suite) RunCell(c Cell) (*svmsim.RunStats, error) {
	key := c.Key()
	s.mu.Lock()
	observe := s.Observe
	if e, ok := s.cells[key]; ok {
		source := SourceMemo
		select {
		case <-e.done:
		default:
			source = SourceFlight
		}
		s.mu.Unlock()
		<-e.done
		if observe != nil {
			observe(CellEvent{Key: key, Source: source, Err: e.err})
		}
		return e.run, e.err
	}
	if s.cells == nil {
		s.cells = make(map[string]*entry)
	}
	e := &entry{done: make(chan struct{})}
	s.cells[key] = e
	s.mu.Unlock()

	source, seconds := s.answer(c, key, e)
	close(e.done)
	if observe != nil {
		observe(CellEvent{Key: key, Source: source, Err: e.err, Seconds: seconds})
	}
	return e.run, e.err
}

// answer fills e from the layers after the memo: the disk cache, then
// Answer, then a simulation. It reports where the answer came from and, for
// a simulation, its wall-clock seconds. Only the cell's statistics are
// kept: the full Result would keep the cell's whole simulated World alive.
func (s *Suite) answer(c Cell, key string, e *entry) (CellSource, float64) {
	if s.CacheDir != "" {
		if run, err, ok := s.loadCell(key); ok {
			e.run, e.err = run, err
			return SourceDisk, 0
		}
	}
	if s.Answer != nil {
		if r, ok := s.Answer(c); ok && (r.Run != nil || r.Err != "") {
			// A worker already wrapped any error with workload and key
			// context; resultErr keeps its structured kind and text
			// verbatim, so a remotely failed cell renders (and caches) the
			// same bytes a local failure would.
			if e.err = resultErr(r); e.err == nil {
				e.run = r.Run
			}
			if r.Source == SourcePredictedCell {
				return SourcePredicted, 0
			}
			if s.CacheDir != "" {
				s.spillCell(key, e.run, e.err)
			}
			return SourceRemote, 0
		}
	}
	sw := walltime.Start()
	e.run, e.err = s.simulate(c.Cfg, c.W)
	seconds := sw.Seconds()
	if e.err != nil {
		e.err = fmt.Errorf("%s on %s: %w", c.W.Name, cfgKey(c.Cfg), e.err)
	}
	if s.CacheDir != "" {
		s.spillCell(key, e.run, e.err)
	}
	return SourceSim, seconds
}

// simulate executes one cell, converting a panic (in the simulator, protocol,
// or application code) into that cell's error instead of taking down the
// whole process.
func (s *Suite) simulate(cfg svmsim.Config, w svmsim.Workload) (run *svmsim.RunStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	res, err := svmsim.Run(cfg, s.app(w))
	if err != nil {
		return nil, err
	}
	return res.Run, nil
}

// Progress returns an Observe callback that prints one line to w for each
// cell the suite answers from disk, Answer or a simulation: the source and
// the cell key, plus a simulation's wall-clock seconds. Memo hits and
// flight joins print nothing. Lines from concurrent workers are serialized.
func Progress(w io.Writer) func(CellEvent) {
	var mu sync.Mutex
	return func(ev CellEvent) {
		if ev.Source == SourceMemo || ev.Source == SourceFlight {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if ev.Source == SourceSim {
			fmt.Fprintf(w, "%s %s %.3fs\n", ev.Source, ev.Key, ev.Seconds)
			return
		}
		fmt.Fprintf(w, "%s %s\n", ev.Source, ev.Key)
	}
}

// Table is one rendered experiment.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  []Row
}

// Row is one application's results. A row with Err set renders the error
// text in place of values while the rest of the table stands (DropRate and
// NodeCrash; every other table fails on its earliest failing cell).
type Row struct {
	Name   string
	Values []float64
	Err    string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Cols)+1)
	widths[0] = len("Application")
	for _, r := range t.Rows {
		if len(r.Name) > widths[0] {
			widths[0] = len(r.Name)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		cells[i] = make([]string, len(r.Values))
		for j, v := range r.Values {
			cells[i][j] = formatCell(v)
		}
	}
	for j, c := range t.Cols {
		widths[j+1] = len(c)
		for i := range cells {
			if j < len(cells[i]) && len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], "Application")
	for j, c := range t.Cols {
		fmt.Fprintf(&b, "  %*s", widths[j+1], c)
	}
	b.WriteString("\n")
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r.Name)
		if r.Err != "" {
			fmt.Fprintf(&b, "  ERROR: %s", r.Err)
			b.WriteString("\n")
			continue
		}
		for j := range t.Cols {
			v := ""
			if j < len(cells[i]) {
				v = cells[i][j]
			}
			fmt.Fprintf(&b, "  %*s", widths[j+1], v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func formatCell(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Get returns the value for application app in column col, or NaN.
func (t *Table) Get(app string, col int) float64 {
	for _, r := range t.Rows {
		if r.Name == app && col < len(r.Values) {
			return r.Values[col]
		}
	}
	return nan()
}

func nan() float64 { var z float64; return 0 / z }

// Sweep points (Table 1 ranges; see DESIGN.md for the reconstruction).
var (
	HostOverheadPoints = []uint64{0, 200, 500, 2000, 5000}
	OccupancyPoints    = []uint64{0, 100, 200, 500, 1000, 2000}
	IOBandwidthPoints  = []float64{0.2, 0.5, 1.0, 2.0}
	InterruptPoints    = []uint64{0, 200, 500, 1000, 2000, 5000, 10000}
	PageSizePoints     = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}
	ClusteringPoints   = []int{1, 2, 4, 8}
)

// apps returns the suite in presentation order.
func apps() []svmsim.Workload { return svmsim.Workloads() }
