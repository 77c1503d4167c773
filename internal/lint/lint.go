// Package lint implements svmlint, the simulator's domain-specific static
// analysis. The simulator's results are only trustworthy because runs are
// bit-deterministic and simulated time is kept in consistent units; both
// properties are easy to break silently (an unsorted map iteration, a
// wall-clock read, cycles added to bytes). svmlint turns those invariants
// into compiler-adjacent checks that run as part of `make check`. The
// engine's allocation-free schedule path needs no analyzer: AtTarget, the
// one way to schedule a callback, takes a typed target rather than a
// closure.
//
// The driver is a whole-program analyzer: every package of a run is fully
// type-checked (stdlib go/types + go/importer only) in dependency order, so
// cross-package facts — the call graph, struct-field write sites — resolve
// to one consistent types.Object per entity. Per-package analyzers:
//
//   - detmap: no order-dependent iteration over Go maps in simulation packages
//   - wallclock: no host wall-clock or global-rand use in internal/ simulation
//     code (the walltime package and cmd/ harnesses are exempt)
//   - units: engine.Time-typed exported fields and constants carry an explicit
//     unit suffix, and numeric declarations named like quantities (timeouts,
//     delays, backoff factors) do too
//   - floatcmp: no floating-point ==/!= and no naive float accumulation in
//     the statistics pipeline
//   - simtime: taint-style unit consistency — additive/comparison arithmetic
//     never mixes expressions carrying different units (Cycles vs Ns vs
//     Bytes), and wall-clock-derived values never flow into simulated-time
//     sinks outside internal/walltime
//
// Whole-program analyzers (these are the reason the driver type-checks the
// full load set):
//
//   - parkdiscipline: no engine blocking call (Park, Delay, Thread.Do,
//     Cond.Wait, Resource.Acquire, Sim.Run) is reachable through the
//     call graph while a sync.Mutex/RWMutex is held
//   - statwire: every exported numeric field of internal/stats carries a
//     snake_case JSON tag (the pinned v1 wire schema) and has at least one
//     write site somewhere in the program
//
// Findings can be suppressed line-by-line with a mandatory written reason:
//
//	//svmlint:ignore <analyzer> <reason>
//
// placed on the offending line or the line directly above it. A suppression
// without a reason is itself a finding, and a suppression is the only way to
// accept one. See DESIGN.md ("Statically enforced invariants") for the
// contract each analyzer encodes.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Analyzer names the check that produced the finding ("svmlint" for
	// malformed suppression comments).
	Analyzer string `json:"analyzer"`
	// File, Line and Col locate the finding (File is as loaded, typically
	// relative to the working directory).
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message states the violation and the expected fix.
	Message string `json:"message"`
	// Suppressed marks findings covered by an //svmlint:ignore comment;
	// Reason carries the comment's justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Package is one loaded, parsed and best-effort type-checked package. Type
// information may be partial (TypeErrors records what the checker could not
// resolve); analyzers degrade gracefully when a type is unknown.
type Package struct {
	Fset  *token.FileSet
	Path  string // import path within the module
	Name  string // package name
	Dir   string
	Files []*ast.File

	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// reportFunc records one finding at pos.
type reportFunc func(pos token.Pos, format string, args ...any)

// Pass is one analyzer invocation. Per-package analyzers get one Pass per
// loaded package (Pkg set); whole-program analyzers get a single Pass with
// Pkg nil and walk Prog.Pkgs themselves.
type Pass struct {
	Prog   *Program
	Pkg    *Package
	Report reportFunc
}

// Analyzer is one svmlint check.
type Analyzer struct {
	Name string
	Doc  string
	// WholeProgram runs the analyzer once over the entire load set instead
	// of once per package; Pass.Pkg is nil for such runs.
	WholeProgram bool
	Run          func(pass *Pass)
}

// Analyzers returns the full analyzer set in presentation order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{
			Name: "detmap",
			Doc:  "flags order-dependent map iteration in simulation packages",
			Run:  detmapRun,
		},
		{
			Name: "wallclock",
			Doc:  "forbids host wall-clock and global math/rand use in internal/ simulation code",
			Run:  wallclockRun,
		},
		{
			Name: "units",
			Doc:  "enforces unit suffixes on engine.Time and quantity-named declarations",
			Run:  unitsRun,
		},
		{
			Name: "floatcmp",
			Doc:  "flags float equality comparison and naive float accumulation in the stats pipeline",
			Run:  floatcmpRun,
		},
		{
			Name:         "parkdiscipline",
			Doc:          "forbids engine blocking calls reachable while a sync mutex is held (call-graph reachability)",
			WholeProgram: true,
			Run:          parkdisciplineRun,
		},
		{
			Name: "simtime",
			Doc:  "flags arithmetic mixing unit-tainted expressions and wall-clock flow into simulated-time sinks",
			Run:  simtimeRun,
		},
		{
			Name:         "statwire",
			Doc:          "requires snake_case json tags and a write site for every numeric stats field (v1 wire schema)",
			WholeProgram: true,
			Run:          statwireRun,
		},
	}
}

// AnalyzerNames returns the known analyzer names.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// typeOf returns the type of e, or nil when type information is unavailable.
func (p *Package) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// objectOf resolves an identifier to its object, or nil.
func (p *Package) objectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// terminalName returns the rightmost identifier name of an Ident or
// SelectorExpr chain ("sy.Prm.CtlBytes" -> "CtlBytes"), or "".
func terminalName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.ParenExpr:
		return terminalName(x.X)
	}
	return ""
}

// importName returns the local name under which file imports path patterns
// matching match (a func of the import path), or "" when absent. Returns
// "." for dot imports.
func importNames(file *ast.File, match func(path string) bool) map[string]bool {
	names := map[string]bool{}
	for _, imp := range file.Imports {
		path := importPath(imp)
		if !match(path) {
			continue
		}
		switch {
		case imp.Name == nil:
			names[pathBase(path)] = true
		default:
			names[imp.Name.Name] = true
		}
	}
	return names
}

func importPath(imp *ast.ImportSpec) string {
	s := imp.Path.Value
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	return s
}

func pathBase(path string) string {
	i := strings.LastIndexByte(path, '/')
	base := path[i+1:]
	// Versioned tails (math/rand/v2) keep the semantic name.
	if i >= 0 && len(base) > 1 && base[0] == 'v' && base[1] >= '0' && base[1] <= '9' {
		return pathBase(path[:i])
	}
	return base
}
