// Package lint implements svmlint, the simulator's domain-specific static
// analysis. The simulator's results are only trustworthy because runs are
// bit-deterministic, and that is easy to break silently (an unsorted map
// iteration, a wall-clock read). svmlint turns those invariants into
// compiler-adjacent checks that run as part of `make check`. Two invariants
// need no analyzer. Simulated time's unit is carried by the compiler:
// engine.Time is a defined type, so cycles mixed with bytes or plain
// integers do not compile without a conversion. And the engine's
// allocation-free schedule path is carried by its API: AtTarget, the one way
// to schedule a callback, takes a typed target rather than a closure.
//
// The driver type-checks every package of a run with the standard library's
// go/types and go/importer only. Per-package analyzers:
//
//   - detmap: no order-dependent iteration over Go maps in simulation packages
//   - wallclock: no host wall-clock or global-rand use in internal/ simulation
//     code (the walltime package and cmd/ harnesses are exempt), and no
//     package the root svmsim package depends on imports walltime
//   - floatcmp: no floating-point ==/!= and no naive float accumulation in
//     the statistics pipeline
//   - parkdiscipline: no package outside the harness imports sync; a
//     simulation runs on one goroutine and takes no lock
//
// The one whole-program analyzer needs the load set checked in dependency
// order, so that a struct field referenced from two packages resolves to one
// types.Object:
//
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

// Program is the whole load set: every package of one svmlint run, checked
// in dependency order by the loader so that a struct field referenced from
// two different packages resolves to the same types.Object. That is what
// lets statwire match a field declared in internal/stats against write
// sites in internal/node.
type Program struct {
	Fset *token.FileSet
	// Module is the module path, which is also the import path of the root
	// package.
	Module string
	// Pkgs is every loaded package in deterministic (directory) order.
	Pkgs []*Package
}

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
			Doc:  "forbids host wall-clock and global math/rand use in internal/ simulation code, and walltime imports in the simulator",
			Run:  wallclockRun,
		},
		{
			Name: "floatcmp",
			Doc:  "flags float equality comparison and naive float accumulation in the stats pipeline",
			Run:  floatcmpRun,
		},
		{
			Name: "parkdiscipline",
			Doc:  "forbids sync imports outside the harness: a simulation runs on one goroutine and takes no lock",
			Run:  parkdisciplineRun,
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
