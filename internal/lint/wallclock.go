package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallclock forbids host wall-clock reads and global (shared-state,
// auto-seeded) math/rand use inside internal/ simulation code. Simulated time
// advances only through engine.Time; a time.Now or rand.Intn call makes run
// output depend on the host scheduler or process seed and silently breaks
// reproducibility. The walltime package is the single sanctioned wrapper for
// harness-side elapsed-time measurement, and cmd/ binaries are outside the
// determinism boundary entirely.
//
// walltime itself stays out of the simulator: no package the root svmsim
// package depends on may import it, so no simulated cycle can be computed
// from a host-clock reading. The rule is checked from the importing side.
// Imports are acyclic, so a package the root depends on never depends on the
// root; a package that imports walltime must therefore depend on the root
// package, as the harness packages (exp, server, fleet) do. That needs only
// the importer's own imports, so the simulator's package set is derived from
// the loaded program rather than listed, and it holds when only part of the
// tree is linted.

// wallclockTimeFuncs are the time package functions that read the host clock
// or create host-timer machinery.
var wallclockTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// wallclockRandFuncs are the math/rand (and /v2) top-level functions backed
// by the global, non-reproducibly-seeded source. Constructing an explicitly
// seeded generator (rand.New(rand.NewSource(...)), rand.NewPCG) is fine.
var wallclockRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true, "N": true,
}

func wallclockRun(pass *Pass) {
	pkg, report := pass.Pkg, pass.Report
	if !strings.Contains(pkg.Path, "/internal/") || pkg.Name == "walltime" {
		return
	}
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			if pathBase(importPath(imp)) == "walltime" && !dependsOn(pkg.Types, pass.Prog.Module) {
				report(imp.Pos(), "walltime imported outside the harness: only a package that depends on %s may read the host clock, so that simulated time never derives from it", pass.Prog.Module)
			}
		}
		// Fallback import-name tables for when type info is unavailable.
		timeNames := importNames(file, func(p string) bool { return p == "time" })
		randNames := importNames(file, func(p string) bool {
			return p == "math/rand" || p == "math/rand/v2"
		})
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch wallclockImportOf(pkg, id, timeNames, randNames) {
			case "time":
				if wallclockTimeFuncs[sel.Sel.Name] {
					report(call.Pos(), "time.%s reads the host clock inside simulation code; use engine.Time for simulated time or the walltime package for harness measurements", sel.Sel.Name)
				}
			case "rand":
				if wallclockRandFuncs[sel.Sel.Name] {
					report(call.Pos(), "global rand.%s is seeded per process and breaks reproducibility; use an explicitly seeded *rand.Rand", sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// wallclockImportOf classifies the package identifier id: "time", "rand" or
// "". Type information is authoritative; import names are the fallback.
func wallclockImportOf(pkg *Package, id *ast.Ident, timeNames, randNames map[string]bool) string {
	if obj := pkg.objectOf(id); obj != nil {
		pn, ok := obj.(*types.PkgName)
		if !ok {
			return "" // a variable shadowing the package name
		}
		switch pn.Imported().Path() {
		case "time":
			return "time"
		case "math/rand", "math/rand/v2":
			return "rand"
		}
		return ""
	}
	if timeNames[id.Name] {
		return "time"
	}
	if randNames[id.Name] {
		return "rand"
	}
	return ""
}

// dependsOn reports whether p imports the package at path, directly or
// through the packages below it (path/...).
func dependsOn(p *types.Package, path string) bool {
	seen := map[*types.Package]bool{}
	var walk func(q *types.Package) bool
	walk = func(q *types.Package) bool {
		for _, imp := range q.Imports() {
			if imp.Path() == path {
				return true
			}
			if !seen[imp] && strings.HasPrefix(imp.Path(), path+"/") {
				seen[imp] = true
				if walk(imp) {
					return true
				}
			}
		}
		return false
	}
	return p != nil && walk(p)
}
