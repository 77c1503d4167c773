package lint

import (
	"go/ast"
	"go/types"
)

// hotalloc flags function literals passed to the engine's per-event
// scheduling APIs (Sim.At, Thread.Delay/Park/Unpark and any future
// Schedule-family method). The engine's dispatch path is allocation-free by
// design — events carry typed resume targets, not closures — so a func
// literal handed to a scheduling call re-introduces a per-event heap
// allocation (the closure plus its captured variables) on exactly the path
// the simulator's throughput depends on. Sim.Spawn is deliberately out of
// scope: thread creation allocates the Thread (and a coroutine carrier when
// the Sim's pool is empty) regardless, so the closure is one allocation per
// thread, not per event, and every Spawn call used to carry the same
// boilerplate suppression saying so. Remaining
// setup-time closures (one per run, not per event) are documented with
// //svmlint:ignore hotalloc <reason>.

// hotallocMethods is the engine scheduling API surface to guard.
var hotallocMethods = map[string]bool{
	"At": true, "Delay": true, "Park": true,
	"Unpark": true, "Schedule": true, "After": true,
}

func hotallocRun(pass *Pass) {
	pkg, report := pass.Pkg, pass.Report
	for _, file := range pkg.Files {
		engineNames := importNames(file, func(p string) bool {
			return pathBase(p) == "engine"
		})
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !hotallocMethods[sel.Sel.Name] {
				return true
			}
			if !hotallocEngineRecv(pkg, sel.X, engineNames) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					report(lit.Pos(), "function literal passed to engine %s call allocates per event on the scheduling hot path; use a typed resume target, or document a setup-time exception with //svmlint:ignore hotalloc <reason>", sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// hotallocEngineRecv reports whether recv is the engine package itself
// (engine.Foo(...)) or a value whose type is declared in a package named
// engine (sim.At(...), t.Delay(...)).
func hotallocEngineRecv(pkg *Package, recv ast.Expr, engineNames map[string]bool) bool {
	if id, ok := recv.(*ast.Ident); ok {
		if obj := pkg.objectOf(id); obj != nil {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Name() == "engine"
			}
		} else if engineNames[id.Name] {
			return true
		}
	}
	t := pkg.typeOf(recv)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	p := named.Obj().Pkg()
	return p != nil && p.Name() == "engine"
}
