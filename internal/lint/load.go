package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module using only
// the standard library: module-internal imports are resolved from source by
// mapping the import path onto the module directory tree, and standard-
// library imports go through go/importer's source importer. The simulator has
// no third-party dependencies, so nothing else needs resolving; an import
// that cannot be resolved degrades to an empty placeholder package and the
// resulting type errors are recorded rather than fatal (analyzers work from
// partial type information).
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot is the directory containing go.mod; ModulePath its module
	// path.
	ModuleRoot string
	ModulePath string
	// IncludeTests parses in-package _test.go files of target packages
	// (external _test packages are always skipped).
	IncludeTests bool

	std  types.ImporterFrom
	deps map[string]*types.Package
}

// NewLoader creates a loader for the module enclosing dir.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: path,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		deps:       map[string]*types.Package{},
	}, nil
}

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if p, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(p), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves the patterns to package directories and loads each one. A
// pattern is a directory path, optionally ending in "/..." for a recursive
// walk. Walks skip testdata, vendor and hidden directories; explicitly named
// directories are always loaded (which is how the analyzer tests reach their
// fixtures under testdata).
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	seen := map[string]bool{}
	var dirs []string
	addDir := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			if rest == "." || rest == "" {
				rest = "."
			}
			err := filepath.WalkDir(rest, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != rest && (name == "testdata" || name == "vendor" ||
					(strings.HasPrefix(name, ".") && name != ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					addDir(p)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("lint: walking %s: %w", pat, err)
			}
			continue
		}
		if !hasGoFiles(pat) {
			return nil, fmt.Errorf("lint: %s contains no Go files", pat)
		}
		addDir(pat)
	}
	sort.Strings(dirs)

	// Parse everything first so the load set's internal dependency graph is
	// known before any package is type-checked.
	type unit struct {
		dir, path string
		files     []*ast.File
	}
	var units []*unit
	byPath := map[string]*unit{}
	for _, dir := range dirs {
		files, err := l.parseDir(dir, l.IncludeTests)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		u := &unit{dir: dir, path: path, files: files}
		units = append(units, u)
		byPath[path] = u
	}

	// Check in dependency order: a package is type-checked (bodies included)
	// after every module-internal import that is part of this load, and the
	// fully checked result is registered with the importer before any
	// dependent is checked. Dependents therefore resolve against the complete
	// package rather than the signatures-only fallback, which gives the whole
	// program one consistent types.Object identity per field — the property
	// the cross-package analyzer (statwire) relies on. An import cycle (only constructible through test files)
	// degrades to signatures-only for the back edge.
	var ordered []*unit
	state := map[*unit]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(u *unit)
	visit = func(u *unit) {
		if state[u] != 0 {
			return
		}
		state[u] = 1
		for _, file := range u.files {
			for _, imp := range file.Imports {
				if dep, ok := byPath[importPath(imp)]; ok {
					visit(dep)
				}
			}
		}
		state[u] = 2
		ordered = append(ordered, u)
	}
	for _, u := range units {
		visit(u)
	}

	pkgs := make([]*Package, 0, len(ordered))
	for _, u := range ordered {
		pkg := l.check(u.dir, u.path, u.files)
		if pkg.Types != nil {
			l.deps[u.path] = pkg.Types
		}
		pkgs = append(pkgs, pkg)
	}
	// Presentation order is by directory, independent of dependency shape.
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Dir < pkgs[j].Dir })
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// check type-checks one parsed package with full function bodies.
func (l *Loader) check(dir, path string, files []*ast.File) *Package {
	pkg := &Package{
		Fset:  l.Fset,
		Path:  path,
		Name:  files[0].Name.Name,
		Dir:   dir,
		Files: files,
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check records everything it could resolve in info even when it returns
	// an error; analyzers treat missing entries as "unknown, don't flag".
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	pkg.Types = tpkg
	pkg.Info = info
	return pkg
}

// parseDir parses the non-test (and optionally in-package test) files of dir.
func (l *Loader) parseDir(dir string, includeTests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !includeTests {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		// Keep one package per directory: external test packages (foo_test)
		// are skipped rather than merged.
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom. Module-internal packages are
// type-checked from source (signatures only); everything else is delegated to
// the standard library's source importer. Failures produce an empty
// placeholder package so that checking the importing package can continue.
func (l *Loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	if p := l.importModulePackage(path); p != nil {
		l.deps[path] = p
		return p, nil
	}
	p, err := l.std.ImportFrom(path, dir, 0)
	if err != nil || p == nil {
		p = types.NewPackage(path, pathBase(path))
		p.MarkComplete()
	}
	l.deps[path] = p
	return p, nil
}

// importModulePackage type-checks a module-internal dependency from source,
// ignoring function bodies (only the exported shape matters to importers).
// Returns nil when path is not inside the module or has no sources.
func (l *Loader) importModulePackage(path string) *types.Package {
	var rel string
	switch {
	case path == l.ModulePath:
		rel = "."
	case strings.HasPrefix(path, l.ModulePath+"/"):
		rel = strings.TrimPrefix(path, l.ModulePath+"/")
	default:
		return nil
	}
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	files, err := l.parseDir(dir, false)
	if err != nil || len(files) == 0 {
		return nil
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		Error:            func(error) {},
	}
	p, _ := conf.Check(path, l.Fset, files, nil)
	if p == nil {
		p = types.NewPackage(path, files[0].Name.Name)
	}
	p.MarkComplete()
	return p
}
