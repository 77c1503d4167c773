// Versioned wire schema (v1) for experiment cells and their results. This is
// the single codec shared by every consumer of serialized cells: the
// persistent disk cache (diskcache.go), the -json output of cmd/sweep, and
// the svmsimd HTTP daemon (internal/server) all encode through the functions
// here, so a cell run over HTTP is byte-identical to the same cell run from
// the CLI. The encoding is pinned by golden-file tests (codec_test.go);
// renaming a JSON tag or changing the marshalling style is a breaking schema
// change and must bump SchemaVersion.
package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"svmsim"
)

// SchemaVersion is the current wire-schema version. Encoders stamp it into
// every document; decoders reject documents from a different version (a
// versioned miss, not a guess).
const SchemaVersion = 1

// CellSpec is the wire form of one simulation cell: a workload name plus the
// studied communication parameters. Zero values mean "suite default" (the
// paper's achievable baseline); the four communication parameters are
// pointers because zero is a meaningful point in their studied ranges.
type CellSpec struct {
	// Schema is the wire-schema version; zero means current.
	Schema int `json:"schema,omitempty"`
	// Workload names one of the paper's applications (see svmsim.Workloads).
	Workload string `json:"workload"`
	// Uniprocessor derives the 1-processor baseline from the configuration
	// (the numerator of every speedup).
	Uniprocessor bool `json:"uniprocessor,omitempty"`
	// Procs and PPN override the suite topology when positive; negative
	// values are rejected.
	Procs int `json:"procs,omitempty"`
	PPN   int `json:"ppn,omitempty"`
	// Mode selects the protocol, spelled as in Modes.
	Mode string `json:"mode,omitempty"`
	// The four communication parameters of the paper; nil keeps the
	// baseline value.
	HostOverheadCycles *uint64  `json:"host_overhead_cycles,omitempty"`
	NIOccupancyCycles  *uint64  `json:"ni_occupancy_cycles,omitempty"`
	IOBytesPerCycle    *float64 `json:"io_bytes_per_cycle,omitempty"`
	IntrHalfCostCycles *uint64  `json:"intr_half_cost_cycles,omitempty"`
	// PageBytes overrides the page size when positive; negative values are
	// rejected.
	PageBytes int `json:"page_bytes,omitempty"`
	// IntrPolicy selects interrupt delivery, spelled as in IntrPolicies.
	IntrPolicy string `json:"intr_policy,omitempty"`
	// Requests selects request handling, spelled as in RequestSchemes.
	Requests string `json:"requests,omitempty"`
	// NIServePages serves page requests on the programmable NI.
	NIServePages bool `json:"ni_serve_pages,omitempty"`
	// NIsPerNode replicates the network interface when positive; negative
	// values are rejected.
	NIsPerNode int `json:"nis_per_node,omitempty"`
	// AllLocal artificially satisfies all page faults locally (the Section 7
	// ablation).
	AllLocal bool `json:"all_local,omitempty"`
}

// Vocab is the wire vocabulary of one of a cell's named choices: the
// protocol (Modes), interrupt delivery (IntrPolicies) or request handling
// (RequestSchemes). Every parser and writer of a choice reads its table
// below, so each spelling is declared once.
type Vocab[T comparable] struct {
	noun  string // names the choice in parse errors
	words []word[T]
}

// word is one spelling. The first word for a value is the one written;
// a later word for the same value is an alias, read but never written.
type word[T comparable] struct {
	name  string
	value T
}

// The vocabularies. The first word of each is the default, which the empty
// string also selects.
var (
	Modes = Vocab[svmsim.Mode]{"protocol mode", []word[svmsim.Mode]{
		{"hlrc", svmsim.HLRC},
		{"aurc", svmsim.AURC},
	}}
	IntrPolicies = Vocab[svmsim.IntrPolicy]{"interrupt policy", []word[svmsim.IntrPolicy]{
		{"static", svmsim.IntrStatic},
		{"round-robin", svmsim.IntrRoundRobin},
		{"roundrobin", svmsim.IntrRoundRobin},
	}}
	RequestSchemes = Vocab[svmsim.RequestHandling]{"request handling", []word[svmsim.RequestHandling]{
		{"interrupts", svmsim.RequestInterrupts},
		{"polling", svmsim.RequestPolling},
		{"dedicated", svmsim.RequestDedicated},
	}}
)

// Parse reads a spelling in any letter case; the empty string selects the
// default. The error for an unknown spelling lists the valid ones and
// carries no package prefix: callers add their own.
func (v Vocab[T]) Parse(s string) (T, error) {
	if s == "" {
		return v.words[0].value, nil
	}
	lower := strings.ToLower(s)
	for _, w := range v.words {
		if w.name == lower {
			return w.value, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (want %s)", v.noun, s, v.Want())
}

// Name spells a value, or returns "" for a value the vocabulary lacks.
func (v Vocab[T]) Name(x T) string {
	for _, w := range v.words {
		if w.value == x {
			return w.name
		}
	}
	return ""
}

// Want lists the written spellings for help texts and errors, such as
// "interrupts, polling or dedicated".
func (v Vocab[T]) Want() string {
	var names []string
	for _, w := range v.words {
		if v.Name(w.value) == w.name {
			names = append(names, w.name)
		}
	}
	last := len(names) - 1
	if last == 0 {
		return names[0]
	}
	return strings.Join(names[:last], ", ") + " or " + names[last]
}

// ResolveCell turns a wire spec into a runnable cell on this suite's
// baseline. Unknown workloads, modes or policies and topology/config
// inconsistencies are reported as errors (the daemon's 400s), never guessed.
func (s *Suite) ResolveCell(spec CellSpec) (Cell, error) {
	if spec.Schema != 0 && spec.Schema != SchemaVersion {
		return Cell{}, fmt.Errorf("exp: unsupported schema version %d (have %d)", spec.Schema, SchemaVersion)
	}
	w, err := WorkloadByName(spec.Workload)
	if err != nil {
		return Cell{}, err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"procs", spec.Procs}, {"ppn", spec.PPN}, {"page_bytes", spec.PageBytes}, {"nis_per_node", spec.NIsPerNode}} {
		if f.v < 0 {
			return Cell{}, fmt.Errorf("exp: negative %s %d (zero keeps the baseline)", f.name, f.v)
		}
	}
	cfg := s.Base()
	if spec.Procs > 0 {
		cfg.Procs = spec.Procs
	}
	if spec.PPN > 0 {
		cfg.ProcsPerNode = spec.PPN
	}
	if cfg.Proto.Mode, err = Modes.Parse(spec.Mode); err != nil {
		return Cell{}, fmt.Errorf("exp: %w", err)
	}
	if spec.HostOverheadCycles != nil {
		cfg.Net.HostOverheadCycles = svmsim.Time(*spec.HostOverheadCycles)
	}
	if spec.NIOccupancyCycles != nil {
		cfg.Net.NIOccupancyCycles = svmsim.Time(*spec.NIOccupancyCycles)
	}
	if spec.IOBytesPerCycle != nil {
		cfg.Net.IOBytesPerCycle = *spec.IOBytesPerCycle
	}
	if spec.IntrHalfCostCycles != nil {
		cfg.IntrHalfCostCycles = svmsim.Time(*spec.IntrHalfCostCycles)
	}
	if spec.PageBytes > 0 {
		cfg.Proto.PageBytes = spec.PageBytes
	}
	if cfg.IntrPolicy, err = IntrPolicies.Parse(spec.IntrPolicy); err != nil {
		return Cell{}, fmt.Errorf("exp: %w", err)
	}
	if cfg.Requests, err = RequestSchemes.Parse(spec.Requests); err != nil {
		return Cell{}, fmt.Errorf("exp: %w", err)
	}
	if spec.NIServePages {
		cfg.NIServePages = true
	}
	if spec.NIsPerNode > 0 {
		cfg.NIsPerNode = spec.NIsPerNode
	}
	if spec.AllLocal {
		cfg.Proto.AllLocal = true
	}
	if spec.Uniprocessor {
		cfg = svmsim.Uniprocessor(cfg)
	}
	if err := cfg.Validate(); err != nil {
		return Cell{}, err
	}
	return Cell{Cfg: cfg, W: w}, nil
}

// SpecFromCell inverts ResolveCell: it maps a runnable cell back to the
// wire spec that reproduces it on any worker whose workload registry
// matches. Every field is emitted explicitly — topology and all four
// communication parameters included — so the spec resolves to the same
// content key regardless of the remote suite's own baseline flags; the
// round trip (a worker's ResolveCell of this spec preserving c.Key()) is
// test-enforced. Cells whose configuration exceeds the wire schema (fault
// plans, reliable transport, watchdog bounds, crash schedules or failure
// detectors) report false: the fleet leaves those to the local simulator.
func SpecFromCell(c Cell) (CellSpec, bool) {
	cfg := c.Cfg
	if cfg.Net.Fault != nil || cfg.Net.Reliable.Enabled || cfg.MaxCycles != 0 || cfg.StallCheckCycles != 0 ||
		cfg.Net.Crash != nil || cfg.Proto.HeartbeatIntervalCycles != 0 || cfg.Proto.SuspectTimeoutCycles != 0 {
		return CellSpec{}, false
	}
	ho, occ, iobw, intr := uint64(cfg.Net.HostOverheadCycles), uint64(cfg.Net.NIOccupancyCycles), cfg.Net.IOBytesPerCycle, uint64(cfg.IntrHalfCostCycles)
	spec := CellSpec{
		Schema:             SchemaVersion,
		Workload:           c.W.Name,
		Procs:              cfg.Procs,
		PPN:                cfg.ProcsPerNode,
		Mode:               Modes.Name(cfg.Proto.Mode),
		HostOverheadCycles: &ho,
		NIOccupancyCycles:  &occ,
		IOBytesPerCycle:    &iobw,
		IntrHalfCostCycles: &intr,
		PageBytes:          cfg.Proto.PageBytes,
		IntrPolicy:         IntrPolicies.Name(cfg.IntrPolicy),
		Requests:           RequestSchemes.Name(cfg.Requests),
		NIServePages:       cfg.NIServePages,
		NIsPerNode:         cfg.NIsPerNode,
		AllLocal:           cfg.Proto.AllLocal,
	}
	if spec.Mode == "" || spec.IntrPolicy == "" || spec.Requests == "" {
		return CellSpec{}, false
	}
	return spec, true
}

// WorkloadByName resolves a workload by its presentation name
// (case-insensitive).
func WorkloadByName(name string) (svmsim.Workload, error) {
	for _, w := range svmsim.Workloads() {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
	}
	return svmsim.Workload{}, fmt.Errorf("exp: unknown workload %q", name)
}

// SelectWorkloads resolves a list of workload names, preserving the suite's
// presentation order; an empty list selects every workload. Unknown names
// are errors, not silent drops.
func SelectWorkloads(names []string) ([]svmsim.Workload, error) {
	if len(names) == 0 {
		return svmsim.Workloads(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, err := WorkloadByName(n); err != nil {
			return nil, err
		}
		want[strings.ToLower(n)] = true
	}
	var out []svmsim.Workload
	for _, w := range svmsim.Workloads() {
		if want[strings.ToLower(w.Name)] {
			out = append(out, w)
		}
	}
	return out, nil
}

// CellResult is the wire and disk form of one finished cell: either the full
// run statistics or the structured error, never both. It doubles as the
// persistent cache entry (the key guards against digest collisions) and as
// the daemon's result body.
type CellResult struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	// Source says how the run was produced: SourceSimulated (a real
	// simulation — the default, and what a missing field decodes to) or
	// SourcePredictedCell (filled in from the analytical twin's calibrated
	// model, see internal/twin). Pruned sweeps are auditable downstream
	// because every model-filled cell carries the marker.
	Source string           `json:"source,omitempty"`
	Run    *svmsim.RunStats `json:"run,omitempty"`
	// ErrKind classifies a failed cell (a taxonomy kind such as "stall"
	// or "lost_page", or "failed"); it survives the disk cache, so a
	// daemon restart reports the same structured kind.
	ErrKind string `json:"err_kind,omitempty"`
	Err     string `json:"err,omitempty"`
}

// CellResult.Source values.
const (
	// SourceSimulated marks a result produced by the simulator.
	SourceSimulated = "simulated"
	// SourcePredictedCell marks a result filled in from the analytical twin
	// without a simulation.
	SourcePredictedCell = "predicted"
)

// NewCellResult builds the wire form of a finished (simulated) cell.
func NewCellResult(key string, run *svmsim.RunStats, err error) CellResult {
	r := CellResult{Schema: SchemaVersion, Key: key}
	if err != nil {
		r.ErrKind = ErrKind(err)
		r.Err = err.Error()
	} else {
		r.Run = run
		r.Source = SourceSimulated
	}
	return r
}

// taxonomy declares every typed failure once: how to recognise it, its
// wire kind, and whether running the cell on another host can change its
// outcome. ErrKind and RetryableKind read it, and the fleet coordinator
// re-dispatches a worker's answer whose kind is retryable. A new error type
// is one row, and a row that leaves out its disposition does not compile. Nothing checks that a type has a row: an error type missing
// from the table classifies as "failed" and retryable, like any untyped
// error. Rows are tried in order, so for an error chain holding several
// types the first row that matches names it.
var taxonomy = []struct {
	is        func(error) bool
	kind      string
	retryable bool
}{
	// Modeled simulation outcomes. The simulator is deterministic, so a
	// stall, a lost page, an exhausted link retry budget, a drained-queue
	// deadlock or a livelock fails identically on every run and on every
	// worker; re-running it only re-pays the full simulation cost.
	{isErr[*svmsim.StallError], "stall", false},
	{isErr[*svmsim.LostPageError], "lost_page", false},
	{isErr[*svmsim.LinkFailureError], "link_failure", false},
	{isErr[*svmsim.DeadlockError], "deadlock", false},
	{isErr[*svmsim.LivelockError], "livelock", false},
	// A panic inside a simulated thread usually reproduces, but panic
	// causes include the host's limits (stack, memory); another worker may
	// finish the cell, so the fleet re-dispatches it rather than cache a
	// possibly host-specific failure.
	{isErr[*svmsim.ThreadPanicError], "panic", true},
	// A wall-clock deadline is pure host weather (load, scheduling, disk):
	// the same cell may finish comfortably on another worker.
	{isErr[*JobTimeoutError], "job_timeout", true},
	// Every placement attempt hit a host-level failure; the cell itself
	// was never judged.
	{isErr[*RedispatchExhaustedError], "redispatch_exhausted", true},
	// The twin's model set is fixed for the life of the request and the
	// studied parameter space is finite: no retry and no other worker
	// answers differently.
	{isErr[*UncalibratedError], "uncalibrated", false},
	{isErr[*InfeasibleError], "infeasible", false},
}

// isErr reports whether err's chain holds a T. Each call declares its own
// errors.As target, so concurrent classifications share no state.
func isErr[T error](err error) bool {
	var target T
	return errors.As(err, &target)
}

// ErrKind classifies an error into the wire schema's structured kinds: a
// typed failure gets its taxonomy kind ("stall", "lost_page",
// "job_timeout", ...); everything else (harness-side panics, validation at
// run time) is "failed", and nil is "". Kinds survive the disk cache and
// the fleet's wire via cachedError.
func ErrKind(err error) string {
	if err == nil {
		return ""
	}
	var c *cachedError
	if errors.As(err, &c) {
		return c.kind
	}
	for _, t := range taxonomy {
		if t.is(err) {
			return t.kind
		}
	}
	return "failed"
}

// RetryableKind reports whether a wire error kind names a host-level
// failure worth re-running elsewhere ("job_timeout", a panic, an
// unclassified harness error or an unknown kind) as opposed to a
// deterministic outcome that fails identically on every worker ("stall",
// "lost_page", ...). The coordinator sees worker failures only as wire
// kinds, after the typed error has been flattened. The empty kind
// (success) is not retryable.
func RetryableKind(kind string) bool {
	if kind == "" {
		return false
	}
	for _, t := range taxonomy {
		if t.kind == kind {
			return t.retryable
		}
	}
	return true
}

// cachedError carries a structured error kind across the disk cache and the
// fleet's wire, where the original typed error has been flattened to text.
type cachedError struct{ kind, msg string }

func (e *cachedError) Error() string { return e.msg }

// resultErr rebuilds the error a failed CellResult carries, or returns nil
// for a result without one. A document that names no kind reads back as
// "failed", the kind of any unclassified error.
func resultErr(r CellResult) error {
	if r.Err == "" {
		return nil
	}
	kind := r.ErrKind
	if kind == "" {
		kind = "failed"
	}
	return &cachedError{kind: kind, msg: r.Err}
}

// EncodeCellResult renders the canonical encoding of a cell result: indented
// JSON with a trailing newline, identical bytes from the CLI, the daemon and
// the disk cache.
func EncodeCellResult(r CellResult) ([]byte, error) {
	return encodeDoc(r)
}

// DecodeCellResult parses a canonical cell-result document, rejecting other
// schema versions.
func DecodeCellResult(data []byte) (CellResult, error) {
	var r CellResult
	if err := json.Unmarshal(data, &r); err != nil {
		return CellResult{}, err
	}
	if r.Schema != SchemaVersion {
		return CellResult{}, fmt.Errorf("exp: unsupported schema version %d (have %d)", r.Schema, SchemaVersion)
	}
	// The source field postdates the first v1 documents; absent means
	// simulated (every pre-twin producer only ever wrote simulations).
	if r.Run != nil && r.Source == "" {
		r.Source = SourceSimulated
	}
	return r, nil
}

// SweepSpec is the wire form of a single-parameter sweep: the cmd/sweep
// query shape (one paper figure), addressable over HTTP.
type SweepSpec struct {
	// Schema is the wire-schema version; zero means current.
	Schema int `json:"schema,omitempty"`
	// Param names the swept axis (see AxisNames).
	Param string `json:"param"`
	// Apps selects a workload subset; empty means all.
	Apps []string `json:"apps,omitempty"`
	// Mode selects the protocol, spelled as in Modes.
	Mode string `json:"mode,omitempty"`
}

// SweepResult is the wire form of a finished sweep: the rendered table in
// structured form. Twin is present only on twin-pruned sweeps.
type SweepResult struct {
	Schema int          `json:"schema"`
	Param  string       `json:"param"`
	Mode   string       `json:"mode"`
	Table  TableResult  `json:"table"`
	Twin   *TwinSummary `json:"twin,omitempty"`
}

// TwinSummary audits a twin-pruned sweep: how many cells were simulated vs
// filled in from the analytical model, and exactly which cells (by content
// key) carry predictions. Absent on unpruned sweeps, so their documents are
// byte-identical to the pre-twin encoding.
type TwinSummary struct {
	// Simulated counts the cells that ran in the simulator (calibration
	// anchors included).
	Simulated int `json:"simulated"`
	// Predicted counts the cells answered by the model.
	Predicted int `json:"predicted"`
	// PredictedCells lists the content keys of every model-filled cell, in
	// sorted order.
	PredictedCells []string `json:"predicted_cells,omitempty"`
}

// TableResult is the structured form of a rendered Table.
type TableResult struct {
	ID    string      `json:"id"`
	Title string      `json:"title"`
	Cols  []string    `json:"cols"`
	Rows  []RowResult `json:"rows"`
}

// RowResult is one application's row; Err is set on a degraded error row.
type RowResult struct {
	Name   string  `json:"name"`
	Values []Float `json:"values,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// Float is a float64 whose JSON encoding tolerates the non-finite values
// tables legitimately contain (NaN marks "data lost" in the node-crash
// sweep): NaN and ±Inf encode as null, everything else exactly as
// encoding/json encodes a float64.
type Float float64

// MarshalJSON implements the null-for-non-finite encoding.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON decodes null back to NaN.
func (f *Float) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// TableToResult converts a rendered table to its wire form.
func TableToResult(t *Table) TableResult {
	tr := TableResult{ID: t.ID, Title: t.Title, Cols: t.Cols}
	for _, r := range t.Rows {
		rr := RowResult{Name: r.Name, Err: r.Err}
		for _, v := range r.Values {
			rr.Values = append(rr.Values, Float(v))
		}
		tr.Rows = append(tr.Rows, rr)
	}
	return tr
}

// ResolveSweep validates a sweep spec, returning its workloads and protocol.
func (s *Suite) ResolveSweep(spec SweepSpec) ([]svmsim.Workload, svmsim.Mode, error) {
	if spec.Schema != 0 && spec.Schema != SchemaVersion {
		return nil, 0, fmt.Errorf("exp: unsupported schema version %d (have %d)", spec.Schema, SchemaVersion)
	}
	if _, err := AxisByName(spec.Param); err != nil {
		return nil, 0, err
	}
	mode, err := Modes.Parse(spec.Mode)
	if err != nil {
		return nil, 0, fmt.Errorf("exp: %w", err)
	}
	wls, err := SelectWorkloads(spec.Apps)
	if err != nil {
		return nil, 0, err
	}
	return wls, mode, nil
}

// RunSweep executes a sweep spec end to end and returns its wire-form
// result; it is the programmatic equivalent of cmd/sweep (and what both the
// CLI's -json mode and the daemon's sweep jobs call, so their outputs are
// byte-identical).
func (s *Suite) RunSweep(spec SweepSpec) (SweepResult, error) {
	wls, mode, err := s.ResolveSweep(spec)
	if err != nil {
		return SweepResult{}, err
	}
	tbl, err := s.SweepParam(spec.Param, wls, mode)
	if err != nil {
		return SweepResult{}, err
	}
	return SweepResult{Schema: SchemaVersion, Param: spec.Param, Mode: Modes.Name(mode), Table: TableToResult(tbl)}, nil
}

// EncodeSweepResult renders the canonical encoding of a sweep result.
func EncodeSweepResult(r SweepResult) ([]byte, error) {
	return encodeDoc(r)
}

// DecodeSweepResult parses a canonical sweep-result document.
func DecodeSweepResult(data []byte) (SweepResult, error) {
	var r SweepResult
	if err := json.Unmarshal(data, &r); err != nil {
		return SweepResult{}, err
	}
	if r.Schema != SchemaVersion {
		return SweepResult{}, fmt.Errorf("exp: unsupported schema version %d (have %d)", r.Schema, SchemaVersion)
	}
	return r, nil
}

// encodeDoc is the one marshalling style of the schema: two-space indented
// JSON with a trailing newline. Byte-for-byte diffability between producers
// depends on every document going through here.
func encodeDoc(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
