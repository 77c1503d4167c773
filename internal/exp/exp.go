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

// Suite runs and memoizes experiments. The memo caches are mutex-guarded and
// deduplicate in-flight runs (singleflight), so a Suite is safe for
// concurrent use: experiments running their cells through RunCells share
// every cell they have in common — two figures built on the achievable
// baseline pay for it once.
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
	// Retries is the number of extra attempts a failing cell gets before its
	// error becomes the cell's cached result. Zero retries once-and-done.
	Retries int
	// CacheDir, when non-empty, persists every finished cell (result or
	// error) to this directory so later sweeps — including other processes —
	// start from the accumulated results instead of re-simulating. Entries
	// are keyed by the same content key as the in-memory memo and written
	// atomically (temp file + rename); see diskcache.go.
	CacheDir string
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
	// Observe, when non-nil, receives one CellEvent per cell request served
	// (memo hit, in-flight join, disk hit, or fresh simulation); a RunCells
	// batch requests each of its unique cells once. It is the suite's
	// observability seam — the svmsimd daemon's cache-hit/miss and
	// latency metrics hang off it. Set it before the suite serves traffic;
	// the callback must be safe for concurrent use and cheap (it runs on
	// the worker's path).
	Observe func(CellEvent)
	// Remote, when non-nil, is consulted for each cell after the memo,
	// singleflight and disk layers miss but before local simulation. It is
	// the fleet seam: the coordinator installs a hook that dispatches the
	// cell to a remote worker and returns its wire result. Returning
	// ok=false (or an empty result) falls back to local simulation, so a
	// coordinator with no live workers degrades to a plain daemon instead
	// of failing. The hook runs inside the cell's singleflight — at most
	// one dispatch per cell is in flight at a time — and must be safe for
	// concurrent use across distinct cells. Set it before the suite serves
	// traffic.
	Remote func(Cell) (CellResult, bool)
	// Predict, when non-nil, is consulted for each cell after the memo,
	// singleflight and disk layers miss but before Remote and local
	// simulation. It is the analytical-twin seam: twin-guided sweep pruning
	// (cmd/sweep -twin-prune) installs a hook that answers high-confidence
	// cells from the calibrated model in microseconds. Returning ok=false
	// falls through to Remote/simulation. A predicted result is memoized
	// in-memory (and observable as SourcePredicted) but never spilled to
	// CacheDir: the persistent cache holds only simulated truth, so a later
	// run with a different (or no) twin never mistakes a prediction for a
	// measurement. Install it only for runs whose outputs mark predicted
	// cells as such.
	Predict func(Cell) (*svmsim.RunStats, bool)

	mu     sync.Mutex
	logMu  sync.Mutex
	cache  map[string]*svmsim.RunStats
	errs   map[string]error
	flight map[string]*flight
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
	// SourceRemote was served by a fleet worker via Suite.Remote.
	SourceRemote
	// SourcePredicted was answered by the analytical twin via Suite.Predict
	// (no simulation ran; the result is a model prediction).
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

// flight is one in-progress (or just-finished) simulation shared by every
// caller that asked for the same cell while it was running.
type flight struct {
	done chan struct{}
	run  *svmsim.RunStats
	err  error
}

// NewSuite creates a suite with the paper's baseline topology.
func NewSuite(sizes Size) *Suite {
	return &Suite{Procs: 16, PPN: 4, Sizes: sizes}
}

// ensure lazily initializes the memo maps so a zero-value Suite works too.
// Callers must hold s.mu.
func (s *Suite) ensure() {
	if s.cache == nil {
		s.cache = make(map[string]*svmsim.RunStats)
	}
	if s.errs == nil {
		s.errs = make(map[string]error)
	}
	if s.flight == nil {
		s.flight = make(map[string]*flight)
	}
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

// run executes (and caches) one workload on one configuration. It is safe
// for concurrent use: the first caller for a key simulates while later
// callers for the same key block on the shared flight and reuse its result.
// A failing cell (error or panic) is retried up to Suite.Retries times; the
// final error is cached too, so an error row renders once per sweep instead
// of re-simulating for every table that shares the cell.
func (s *Suite) run(cfg svmsim.Config, w svmsim.Workload) (*svmsim.RunStats, error) {
	key := w.Name + "|" + cfgKey(cfg)
	s.mu.Lock()
	s.ensure()
	observe := s.Observe
	if run, ok := s.cache[key]; ok {
		s.mu.Unlock()
		if observe != nil {
			observe(CellEvent{Key: key, Source: SourceMemo})
		}
		return run, nil
	}
	if err, ok := s.errs[key]; ok {
		s.mu.Unlock()
		if observe != nil {
			observe(CellEvent{Key: key, Source: SourceMemo, Err: err})
		}
		return nil, err
	}
	if f, ok := s.flight[key]; ok {
		s.mu.Unlock()
		<-f.done
		if observe != nil {
			observe(CellEvent{Key: key, Source: SourceFlight, Err: f.err})
		}
		return f.run, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flight[key] = f
	verbose := s.Verbose
	retries := s.Retries
	s.mu.Unlock()

	// run is the cell's statistics. Only they are memoized: the full
	// Result would keep the cell's whole simulated World alive.
	var run *svmsim.RunStats
	var err error
	source := SourceSim
	hit := false
	if s.CacheDir != "" {
		if drun, derr, ok := s.loadCell(key); ok {
			hit, run, err, source = true, drun, derr, SourceDisk
			if verbose != nil {
				s.logf(verbose, "disk %-12s %s\n", w.Name, cfgKey(cfg))
			}
		}
	}
	if !hit {
		// The twin answers before the fleet: a confident prediction costs
		// microseconds, a remote dispatch costs a network round trip plus a
		// worker's simulation. Predictions deliberately skip the CacheDir
		// spill below — see the Predict field's cache-purity contract.
		if predict := s.Predict; predict != nil {
			if prun, ok := predict(Cell{Cfg: cfg, W: w}); ok && prun != nil {
				hit, run, source = true, prun, SourcePredicted
				if verbose != nil {
					s.logf(verbose, "twin %-12s %s\n", w.Name, cfgKey(cfg))
				}
			}
		}
	}
	if !hit {
		if remote := s.Remote; remote != nil {
			if rr, ok := remote(Cell{Cfg: cfg, W: w}); ok && (rr.Run != nil || rr.Err != "") {
				hit, source = true, SourceRemote
				// The worker already wrapped any error with workload and key
				// context; preserve its structured kind and text verbatim so
				// a remotely-failed cell renders (and caches) the same bytes
				// a local failure would.
				if err = resultErr(rr); err == nil {
					run = rr.Run
				}
				if verbose != nil {
					s.logf(verbose, "remote %-10s %s\n", w.Name, cfgKey(cfg))
				}
				if s.CacheDir != "" {
					s.spillCell(key, rr.Run, err)
				}
			}
		}
	}
	var simSeconds float64
	for attempt := 0; !hit; attempt++ {
		if verbose != nil {
			if attempt == 0 {
				s.logf(verbose, "run %-12s %s\n", w.Name, cfgKey(cfg))
			} else {
				s.logf(verbose, "retry %-10s %s (attempt %d: %v)\n", w.Name, cfgKey(cfg), attempt+1, err)
			}
		}
		sw := walltime.Start()
		run, err = s.simulate(cfg, w)
		simSeconds += sw.Seconds()
		if err == nil || attempt >= retries || deterministicErr(err) {
			break
		}
	}
	if !hit {
		if err != nil {
			err = fmt.Errorf("%s on %s: %w", w.Name, cfgKey(cfg), err)
		}
		if s.CacheDir != "" {
			s.spillCell(key, run, err)
		}
	}

	s.mu.Lock()
	if err == nil {
		s.cache[key] = run
		f.run = run
	} else {
		s.errs[key] = err
	}
	f.err = err
	delete(s.flight, key)
	s.mu.Unlock()
	close(f.done)
	if observe != nil {
		observe(CellEvent{Key: key, Source: source, Err: err, Seconds: simSeconds})
	}
	return f.run, f.err
}

// RunCell executes (or serves from cache) one cell: the programmatic entry
// point behind cmd/sweep's -cell mode and the daemon's cell jobs.
func (s *Suite) RunCell(c Cell) (*svmsim.RunStats, error) {
	return s.run(c.Cfg, c.W)
}

// deterministicErr reports whether a freshly simulated error is a
// reproducible outcome (see taxonomy): the simulator is deterministic, so
// such a failure repeats on every attempt and a retry only re-pays the full
// simulation cost before caching the same error. Retries exist for
// host-level flakiness, not for modeled failures.
func deterministicErr(err error) bool {
	return !RetryableKind(ErrKind(err))
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

// logf serializes verbose progress lines from concurrent workers.
func (s *Suite) logf(w io.Writer, format string, args ...any) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(w, format, args...)
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
