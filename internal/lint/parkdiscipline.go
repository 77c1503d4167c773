package lint

// parkdiscipline keeps locks out of the simulator. A simulation runs on one
// goroutine: the engine's threads are coroutines that its scheduler loop
// resumes one at a time, so a simulated thread never waits on another
// goroutine and no simulator package has a use for a mutex. A lock taken
// inside a simulation could only park with the simulated thread that holds
// it, stalling every other goroutine that takes it until the simulation
// resumes that thread; with no lock there, a simulation cannot deadlock on
// one. The harness packages (exp, server, fleet) do take locks, but outside
// any simulation, where a lock only delays its other takers.
//
// The rule is an import rule, checked per package: a package that does not
// depend on the root svmsim package may not import sync. sync/atomic stays
// allowed. As for walltime in wallclock, the simulator's package set is
// derived from the importer's own imports (dependsOn), not listed: it is the
// root itself, every package the root depends on, and the few packages on
// neither side.

func parkdisciplineRun(pass *Pass) {
	if dependsOn(pass.Pkg.Types, pass.Prog.Module) {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, imp := range file.Imports {
			if importPath(imp) == "sync" {
				pass.Report(imp.Pos(), "sync imported outside the harness: only a package that depends on %s may take a lock, so that a simulation never waits on another goroutine", pass.Prog.Module)
			}
		}
	}
}
