package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Program is the whole load set: every package of one svmlint run, checked in
// dependency order by the loader so that a function, type or field referenced
// from two different packages resolves to the same types.Object. That single
// property is what turns the per-file walker into a whole-program analyzer —
// a call graph edge recorded in internal/server can name the exact
// *types.Func declared in internal/engine, and a struct field declared in
// internal/stats can be matched against write sites in internal/node.
type Program struct {
	Fset *token.FileSet
	// Module is the module path, which is also the import path of the root
	// package.
	Module string
	// Pkgs is every loaded package in deterministic (directory) order.
	Pkgs []*Package

	graph *CallGraph
}

// CallGraph is the program's static call graph: one node per function or
// method declaration with a body, edges to every callee the type checker can
// resolve statically. Calls inside function literals are attributed to the
// enclosing declaration (the literal runs with the declaration's dynamic
// context as far as lock discipline is concerned, and if it escapes to
// another goroutine the attribution is merely conservative). Dynamic calls —
// through function values, interface methods with unresolved receivers — are
// not edges; analyzers that need soundness there must say so in their docs.
type CallGraph struct {
	funcs   []*types.Func                 // deterministic declaration order
	callees map[*types.Func][]*types.Func // deduped, in source order
}

// CallGraph builds (once) and returns the program's call graph.
func (p *Program) CallGraph() *CallGraph {
	if p.graph != nil {
		return p.graph
	}
	cg := &CallGraph{
		callees: map[*types.Func][]*types.Func{},
	}
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || pkg.Info == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				cg.funcs = append(cg.funcs, fn)
				seen := map[*types.Func]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := pkg.calleeOf(call); callee != nil && !seen[callee] {
						seen[callee] = true
						cg.callees[fn] = append(cg.callees[fn], callee)
					}
					return true
				})
			}
		}
	}
	p.graph = cg
	return cg
}

// ReachAny computes, for every declared function that can transitively reach
// a function matching seed, the first callee on one witness path. Seed
// functions themselves are excluded (their own bodies are the implementation
// of the property, not users of it). The map is deterministic: functions are
// relaxed in declaration order and callees in source order, so the chosen
// witness never depends on map iteration.
func (cg *CallGraph) ReachAny(seed func(*types.Func) bool) map[*types.Func]*types.Func {
	reaches := map[*types.Func]*types.Func{}
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.funcs {
			if seed(fn) {
				continue
			}
			if _, ok := reaches[fn]; ok {
				continue
			}
			for _, c := range cg.callees[fn] {
				if seed(c) || reaches[c] != nil {
					reaches[fn] = c
					changed = true
					break
				}
			}
		}
	}
	return reaches
}

// calleeOf statically resolves a call expression to the *types.Func it
// invokes: a plain function, a method (through a selection), or a
// package-qualified function. Returns nil for dynamic calls, conversions and
// builtins.
func (p *Package) calleeOf(call *ast.CallExpr) *types.Func {
	if p.Info == nil {
		return nil
	}
	fun := call.Fun
	for {
		paren, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = paren.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := p.objectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified: pkg.Fn(...).
		fn, _ := p.objectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// funcLabel renders a function for diagnostics in the short, module-path-free
// form "(*engine.Thread).Park" / "proto.recoverLocks".
func funcLabel(fn *types.Func) string {
	name := fn.Name()
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + star + pkgName + "." + named.Obj().Name() + ")." + name
		}
	}
	if pkgName != "" {
		return pkgName + "." + name
	}
	return name
}
