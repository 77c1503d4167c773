package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// parkdiscipline enforces the one concurrency rule the harness-side code
// must never break: no engine blocking call may be reachable while a
// sync.Mutex or sync.RWMutex is held. The engine's threads are cooperative —
// Park, Delay, Thread.Do, Cond.Wait, Resource.Acquire and Sim.Run all
// surrender the real OS thread to the scheduler and only return when another
// simulated event resumes them. A goroutine that enters that machinery while
// holding a harness mutex (the experiment Suite's memo lock, the daemon's
// job-table lock) parks with the lock held; every other goroutine that
// touches the lock then blocks for an unbounded number of simulated events,
// and if one of *those* is the goroutine that would produce the resuming
// event, the process deadlocks outside the engine's own watchdog's sight. No
// such hold is ever "brief": a thread parks by yielding its coroutine carrier
// back to the scheduler loop, which runs every event due before the thread's
// own resume while the lock stays held.
//
// The analyzer is whole-program: it seeds the blocking set with the engine
// package's blocking entry points, closes it backwards over the call graph,
// then scans every function body tracking Lock/Unlock pairs in source order.
// A call that is (or transitively may reach) a blocking seed while any mutex
// is held is a finding, annotated with the witness call chain. Limitations
// are the call graph's: calls through function values or interfaces are not
// edges, and `defer mu.Unlock()` keeps the mutex held to the end of the
// function (which is exactly the dangerous shape).

// parkBlockingNames are the blocking entry points, matched in any package
// named "engine" (the real simulator and the fixture mini-engine): the
// public parking surface plus the internal park it all funnels through.
var parkBlockingNames = map[string]bool{
	"Park": true, "Delay": true, "Do": true, "Wait": true,
	"Acquire": true, "Run": true, "park": true,
}

// parkBlocking reports whether fn is an engine blocking seed.
func parkBlocking(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "engine" && parkBlockingNames[fn.Name()]
}

func parkdisciplineRun(pass *Pass) {
	cg := pass.Prog.CallGraph()
	reaches := cg.ReachAny(parkBlocking)
	for _, pkg := range pass.Prog.Pkgs {
		if pkg.Name == "engine" {
			// The engine's own internals are the implementation of parking,
			// not a client of it.
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					parkScanBody(pass, pkg, fd.Body, reaches)
				}
			}
		}
	}
}

// heldLock records one acquired mutex.
type heldLock struct {
	key string // source rendering of the receiver, e.g. "s.mu"
	pos token.Position
	op  string // "Lock" or "RLock"
}

// parkScanBody walks one function body in source order, tracking which
// mutexes are held and reporting calls that may block while any is.
// Function literals get their own empty lock context (they run later, on
// whatever goroutine invokes them); deferred calls are skipped (they run at
// return, where a deferred Unlock has its own semantics).
func parkScanBody(pass *Pass, pkg *Package, body *ast.BlockStmt, reaches map[*types.Func]*types.Func) {
	var held []heldLock
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			parkScanBody(pass, pkg, x.Body, reaches)
			return false
		case *ast.DeferStmt:
			for _, arg := range x.Call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					parkScanBody(pass, pkg, lit.Body, reaches)
				}
			}
			return false
		case *ast.GoStmt:
			// The spawned goroutine does not inherit the spawner's locks.
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				parkScanBody(pass, pkg, lit.Body, reaches)
			}
			return false
		case *ast.CallExpr:
			callee := pkg.calleeOf(x)
			if callee == nil {
				return true
			}
			if key, op, isLock := parkLockOp(x, callee); key != "" {
				if isLock {
					held = append(held, heldLock{key: key, pos: pkg.Fset.Position(x.Pos()), op: op})
				} else {
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].key == key {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return true
			}
			if len(held) == 0 {
				return true
			}
			lock := held[len(held)-1]
			if parkBlocking(callee) {
				pass.Report(x.Pos(), "engine blocking call %s while %s is held (%s at line %d); the engine parks the goroutine with the lock held — unlock first, or justify with //svmlint:ignore parkdiscipline <reason>",
					funcLabel(callee), lock.key, lock.op, lock.pos.Line)
				return true
			}
			if _, ok := reaches[callee]; ok {
				pass.Report(x.Pos(), "call to %s may reach engine blocking call (%s) while %s is held (%s at line %d); the engine parks the goroutine with the lock held — unlock first, or justify with //svmlint:ignore parkdiscipline <reason>",
					funcLabel(callee), parkChain(callee, reaches), lock.key, lock.op, lock.pos.Line)
			}
		}
		return true
	})
}

// parkLockOp classifies a call as a mutex acquire or release: a method named
// Lock/RLock (acquire) or Unlock/RUnlock (release) declared in package sync,
// which covers sync.Mutex, sync.RWMutex, embedded mutexes and sync.Locker
// values. Returns the receiver's source rendering as the lock key.
func parkLockOp(call *ast.CallExpr, callee *types.Func) (key, op string, isLock bool) {
	if callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch callee.Name() {
	case "Lock", "RLock":
		isLock = true
	case "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	return types.ExprString(sel.X), callee.Name(), isLock
}

// parkChain renders the witness path from fn to a blocking seed, e.g.
// "exp.run -> machine.Run -> (*engine.Sim).Run".
func parkChain(fn *types.Func, reaches map[*types.Func]*types.Func) string {
	var parts []string
	parts = append(parts, funcLabel(fn))
	cur := fn
	for i := 0; i < 8; i++ {
		next, ok := reaches[cur]
		if !ok {
			break
		}
		parts = append(parts, funcLabel(next))
		if parkBlocking(next) {
			break
		}
		cur = next
	}
	return strings.Join(parts, " -> ")
}
