package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Options configure one svmlint run.
type Options struct {
	// Patterns are package directories, optionally ending in "/..." for a
	// recursive walk (defaults to "./...").
	Patterns []string
	// Dir anchors module discovery (defaults to ".").
	Dir string
	// Enable restricts the run to the named analyzers; empty means all.
	Enable []string
	// Disable removes the named analyzers from the run.
	Disable []string
	// JSON emits findings as a JSON array instead of file:line:col text.
	JSON bool
	// Tests includes in-package _test.go files.
	Tests bool
	// Verbose prints suppressed findings as well.
	Verbose bool
}

// Result is the outcome of a Run.
type Result struct {
	// Findings holds every active (unsuppressed) finding, sorted by
	// position.
	Findings []Finding
	// Suppressed holds findings that an //svmlint:ignore directive covered.
	Suppressed []Finding
}

// Run loads the requested packages as one whole program and applies the
// enabled analyzers.
func Run(opts Options) (*Result, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	enabled, err := enabledSet(opts.Enable, opts.Disable)
	if err != nil {
		return nil, err
	}
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	loader.IncludeTests = opts.Tests
	pkgs, err := loader.Load(patterns)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: loader.Fset, Module: loader.ModulePath, Pkgs: pkgs}

	known := map[string]bool{}
	for _, name := range AnalyzerNames() {
		known[name] = true
	}
	res := &Result{}
	admit := func(f Finding) { res.Findings = append(res.Findings, f) }
	// The suppression set spans the whole program: whole-program analyzers
	// report findings in any loaded package.
	sups := collectSuppressions(pkgs, known, admit)
	reportFor := func(name string) reportFunc {
		return func(pos token.Pos, format string, args ...any) {
			p := prog.Fset.Position(pos)
			f := Finding{
				Analyzer: name,
				File:     p.Filename,
				Line:     p.Line,
				Col:      p.Column,
				Message:  fmt.Sprintf(format, args...),
			}
			if sup := sups.match(name, p); sup != nil {
				f.Suppressed = true
				f.Reason = sup.reason
				res.Suppressed = append(res.Suppressed, f)
				return
			}
			admit(f)
		}
	}
	for _, a := range Analyzers() {
		if !enabled[a.Name] {
			continue
		}
		report := reportFor(a.Name)
		if a.WholeProgram {
			a.Run(&Pass{Prog: prog, Report: report})
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{Prog: prog, Pkg: pkg, Report: report})
		}
	}
	sups.unused(enabled, admit)
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// enabledSet resolves -enable/-disable into the active analyzer set.
func enabledSet(enable, disable []string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, name := range AnalyzerNames() {
		known[name] = true
	}
	check := func(names []string) error {
		for _, n := range names {
			if !known[n] {
				return fmt.Errorf("lint: unknown analyzer %q (known: %s)", n, strings.Join(AnalyzerNames(), ", "))
			}
		}
		return nil
	}
	if err := check(enable); err != nil {
		return nil, err
	}
	if err := check(disable); err != nil {
		return nil, err
	}
	enabled := map[string]bool{}
	if len(enable) == 0 {
		for name := range known {
			enabled[name] = true
		}
	} else {
		for _, n := range enable {
			enabled[n] = true
		}
	}
	for _, n := range disable {
		delete(enabled, n)
	}
	return enabled, nil
}

// Main is the svmlint command-line driver: it parses args, runs the
// analyzers and writes findings to stdout. The exit code is 0 when the tree
// is clean, 1 when there are findings, and 2 on usage or load errors.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as JSON")
		tests   = fs.Bool("tests", false, "also analyze _test.go files")
		enable  = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable = fs.String("disable", "", "comma-separated analyzers to skip")
		verbose = fs.Bool("v", false, "also print suppressed findings")
		list    = fs.Bool("analyzers", false, "list analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: svmlint [flags] [packages]\n\n"+
			"svmlint checks the simulator's determinism, wall-clock, float, no-lock and stats-wiring invariants.\n"+
			"Packages are directories, optionally ending in /... (default ./...).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	opts := Options{
		Patterns: fs.Args(),
		Enable:   splitList(*enable),
		Disable:  splitList(*disable),
		JSON:     *jsonOut,
		Tests:    *tests,
		Verbose:  *verbose,
	}
	res, err := Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if opts.JSON {
		out := res.Findings
		if opts.Verbose {
			out = append(append([]Finding{}, out...), res.Suppressed...)
			sortFindings(out)
		}
		if out == nil {
			out = []Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range res.Findings {
			fmt.Fprintln(stdout, f.String())
		}
		if opts.Verbose {
			for _, f := range res.Suppressed {
				fmt.Fprintf(stdout, "%s [suppressed: %s]\n", f.String(), f.Reason)
			}
		}
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
