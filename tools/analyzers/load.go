package analyzers

// The typed loader: parse + type-check the module's packages with
// nothing but the standard library. Module-internal imports
// ("repro/...") are resolved recursively against the module root;
// standard-library imports are type-checked from $GOROOT source by
// go/importer's source importer (the gc export-data importer stopped
// working when Go 1.20 removed the pre-compiled stdlib). One process
// shares a single loader, so the stdlib is checked once no matter how
// many fixture packages or repo-wide runs a test binary performs.

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
	"sync"
)

// loader owns the shared FileSet, the stdlib importer and the cache of
// type-checked module packages.
type loader struct {
	mu     sync.Mutex
	fset   *token.FileSet
	root   string // module root directory (holds go.mod)
	module string // module path from go.mod
	std    types.Importer
	pkgs   map[string]*Package // module packages by import path
	ext    map[string]*Package // external test packages by import path
	active map[string]bool     // import-cycle guard
}

var (
	sharedLoaderOnce sync.Once
	sharedLoader     *loader
	sharedLoaderErr  error
)

// getLoader returns the process-wide loader, locating the module root
// by walking up from the working directory to the nearest go.mod.
func getLoader() (*loader, error) {
	sharedLoaderOnce.Do(func() {
		dir, err := os.Getwd()
		if err != nil {
			sharedLoaderErr = err
			return
		}
		for {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				sharedLoaderErr = fmt.Errorf("no go.mod found above working directory")
				return
			}
			dir = parent
		}
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err != nil {
			sharedLoaderErr = err
			return
		}
		module := ""
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(line, "module "); ok {
				module = strings.TrimSpace(rest)
				break
			}
		}
		if module == "" {
			sharedLoaderErr = fmt.Errorf("%s/go.mod declares no module", dir)
			return
		}
		fset := token.NewFileSet()
		sharedLoader = &loader{
			fset:   fset,
			root:   dir,
			module: module,
			std:    importer.ForCompiler(fset, "source", nil),
			pkgs:   map[string]*Package{},
			ext:    map[string]*Package{},
			active: map[string]bool{},
		}
	})
	return sharedLoader, sharedLoaderErr
}

// pathFor maps a directory inside the module to its import path.
func (l *loader) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module root %s", dir, l.root)
	}
	if rel == "." {
		return l.module, nil
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module import path back to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// isModulePath reports whether path names a package of this module.
func (l *loader) isModulePath(path string) bool {
	return path == l.module || strings.HasPrefix(path, l.module+"/")
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// imports resolves one import for a package being checked: unsafe and
// the stdlib go to the source importer, module paths recurse into the
// loader.
func (l *loader) imports(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isModulePath(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("package %s did not type-check", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// parseDir parses every .go file directly inside dir, split into the
// primary package's files (non-test plus in-package _test.go) and the
// external test package's files (package foo_test).
func (l *loader) parseDir(dir string) (primary, external []File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []File
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, File{Path: path, Ast: f, Test: strings.HasSuffix(ent.Name(), "_test.go")})
	}
	// The primary package name is the one the non-test files declare.
	name := ""
	for _, f := range files {
		if !f.Test {
			name = f.Ast.Name.Name
			break
		}
	}
	for _, f := range files {
		if f.Test && (name == "" || f.Ast.Name.Name != name) {
			external = append(external, f)
		} else {
			primary = append(primary, f)
		}
	}
	return primary, external, nil
}

// check type-checks one file set as a package. Type errors are
// collected, not fatal: the analyzers still run on a partially typed
// package, and the driver surfaces the errors separately.
func (l *loader) check(path string, files []File) (*types.Package, *types.Info, []error) {
	var errs []error
	conf := types.Config{
		Importer: importerFunc(l.imports),
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.Ast
	}
	tpkg, err := conf.Check(path, l.fset, asts, info)
	if err != nil && len(errs) == 0 {
		errs = append(errs, err)
	}
	return tpkg, info, errs
}

// load type-checks the module package at the given import path
// (memoized). The primary package includes its in-package test files:
// they type-check together exactly as `go test` compiles them, and
// determguard follows the model checker's test drivers through them.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	dir := l.dirFor(path)
	primary, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, Path: path, Fset: l.fset, Files: primary}
	if len(primary) > 0 {
		pkg.Name = primary[0].Ast.Name.Name
		pkg.Types, pkg.Info, pkg.TypeErrors = l.check(path, primary)
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loadExternalTest type-checks dir's package foo_test files, if any,
// as their own package (they import the primary one).
func (l *loader) loadExternalTest(path string) (*Package, error) {
	if pkg, ok := l.ext[path]; ok {
		return pkg, nil
	}
	dir := l.dirFor(path)
	_, external, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(external) == 0 {
		l.ext[path] = nil
		return nil, nil
	}
	pkg := &Package{Dir: dir, Path: path + ".test", Fset: l.fset, Files: external}
	pkg.Name = external[0].Ast.Name.Name
	pkg.Types, pkg.Info, pkg.TypeErrors = l.check(pkg.Path, external)
	l.ext[path] = pkg
	return pkg, nil
}

// Load walks each root recursively, type-checks every package
// directory found, and returns them (with their external test
// packages) as one Program. A trailing "/..." on a root is accepted
// and redundant: the walk always recurses. testdata, vendor, hidden
// and underscore directories are skipped, mirroring the go tool's
// build rules — fixture packages are loaded only when a root points
// directly at them.
func Load(roots []string) (*Program, error) {
	l, err := getLoader()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	var dirs []string
	for _, root := range roots {
		root = strings.TrimSuffix(root, "...")
		root = strings.TrimSuffix(root, string(filepath.Separator))
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	prog := &Program{Fset: l.fset, loader: l}
	seen := map[string]bool{}
	for _, dir := range dirs {
		path, err := l.pathFor(dir)
		if err != nil {
			return nil, err
		}
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if len(pkg.Files) == 0 {
			continue
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		ext, err := l.loadExternalTest(path)
		if err != nil {
			return nil, err
		}
		if ext != nil {
			prog.Pkgs = append(prog.Pkgs, ext)
		}
	}
	return prog, nil
}

// LoadDir loads the single package directory dir (plus any external
// test package it carries) — the analyzertest entry point for fixture
// packages, which the recursive walk deliberately skips.
func LoadDir(dir string) (*Program, error) {
	return Load([]string{dir + "/"})
}

// allModulePackages returns every module package the loader has
// type-checked — roots and dependencies alike — in stable path order.
// The call graph and reachability analyses build over this set.
func (prog *Program) allModulePackages() []*Package {
	l := prog.loader
	var out []*Package
	for _, pkg := range l.pkgs {
		if len(pkg.Files) > 0 {
			out = append(out, pkg)
		}
	}
	for _, pkg := range l.ext {
		if pkg != nil && len(pkg.Files) > 0 {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
