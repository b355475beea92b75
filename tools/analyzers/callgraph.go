package analyzers

// A lightweight static call graph over the loaded module packages.
// Edges are resolved through types.Info.Uses, so calls
// follow across files and packages regardless of import aliasing.
// Interface method calls get CHA-lite edges: every concrete method of
// a module type that implements the interface is a possible callee.
// FuncLit bodies are attributed to their enclosing declaration (a
// closure's calls are the encloser's calls — an over-approximation
// that errs toward reporting). Edges made under a `go` statement are
// classified async: analyzers that care about what blocks the *caller*
// (sendguard) traverse sync edges only, analyzers that care about what
// code *executes* (determguard) traverse all edges.

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph holds static call edges for every function declared in the
// loaded module packages.
type CallGraph struct {
	decls map[*types.Func]*ast.FuncDecl
	pkgOf map[*types.Func]*Package
	sync  map[*types.Func][]*types.Func // edges not crossing a go statement
	all   map[*types.Func][]*types.Func // sync edges plus goroutine spawns

	methodsByName map[string][]*types.Func // every concrete module method
}

// CallGraph builds (once) and returns the program's call graph.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg != nil {
		return prog.cg
	}
	cg := &CallGraph{
		decls:         map[*types.Func]*ast.FuncDecl{},
		pkgOf:         map[*types.Func]*Package{},
		sync:          map[*types.Func][]*types.Func{},
		all:           map[*types.Func][]*types.Func{},
		methodsByName: map[string][]*types.Func{},
	}
	pkgs := prog.allModulePackages()

	// Index every concrete method declared in the module by name, for
	// CHA resolution of interface calls.
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				cg.decls[fn] = fd
				cg.pkgOf[fn] = pkg
				if fd.Recv != nil {
					cg.methodsByName[fn.Name()] = append(cg.methodsByName[fn.Name()], fn)
				}
			}
		}
	}

	addEdge := func(from, to *types.Func, async bool) {
		if !async {
			cg.sync[from] = append(cg.sync[from], to)
		}
		cg.all[from] = append(cg.all[from], to)
	}

	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		info := pkg.Info
		for _, f := range pkg.Files {
			for _, decl := range f.Ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				from, ok := info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				var walk func(n ast.Node, async bool)
				walk = func(n ast.Node, async bool) {
					ast.Inspect(n, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.GoStmt:
							// The spawned call and everything it closes
							// over run on another goroutine.
							walk(n.Call, true)
							return false
						case *ast.CallExpr:
							if callee := StaticCallee(info, n); callee != nil {
								for _, to := range cg.Targets(callee) {
									addEdge(from, to, async)
								}
							}
						}
						return true
					})
				}
				walk(fd.Body, false)
			}
		}
	}
	prog.cg = cg
	return cg
}

// StaticCallee resolves the function a call expression statically
// invokes, or nil for dynamic calls (function values, builtins,
// conversions).
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// Targets expands one callee into its concrete targets: a concrete
// function stays itself; an interface method fans out to every module
// method implementing it.
func (cg *CallGraph) Targets(fn *types.Func) []*types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return []*types.Func{fn}
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return []*types.Func{fn}
	}
	var out []*types.Func
	for _, m := range cg.methodsByName[fn.Name()] {
		recv := m.Type().(*types.Signature).Recv().Type()
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			out = append(out, m)
		}
	}
	return out
}

// Decl returns the syntax of fn's declaration, or nil if fn is not
// declared in a loaded module package.
func (cg *CallGraph) Decl(fn *types.Func) *ast.FuncDecl { return cg.decls[fn] }

// PackageOf returns the loaded package declaring fn, or nil.
func (cg *CallGraph) PackageOf(fn *types.Func) *Package { return cg.pkgOf[fn] }

// Funcs returns every function declared in the module, in stable
// (package path, position) order.
func (cg *CallGraph) Funcs() []*types.Func {
	out := make([]*types.Func, 0, len(cg.decls))
	for fn := range cg.decls {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := cg.pkgOf[out[i]], cg.pkgOf[out[j]]
		if pi.Path != pj.Path {
			return pi.Path < pj.Path
		}
		return cg.decls[out[i]].Pos() < cg.decls[out[j]].Pos()
	})
	return out
}

// Reachable returns the set of functions reachable from roots along
// call edges. syncOnly restricts traversal to edges that keep the
// caller blocked (i.e. excludes goroutine spawns).
func (cg *CallGraph) Reachable(roots []*types.Func, syncOnly bool) map[*types.Func]bool {
	edges := cg.all
	if syncOnly {
		edges = cg.sync
	}
	seen := map[*types.Func]bool{}
	stack := append([]*types.Func(nil), roots...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		stack = append(stack, edges[fn]...)
	}
	return seen
}
