package analyzers

import (
	"go/ast"
	"go/types"
)

// ObsGuard enforces the contract internal/obs documents: every
// exported method on a hook type is nil-receiver-safe, so an
// uninstrumented component can hold nil hooks and never branch on "is
// observability on". A method is accepted when it guards the receiver
// against nil within its first two statements (and does not touch the
// receiver before the guard), or when it uses the receiver solely as
// the receiver of further method calls — delegation, where the guard
// lives in the callee (Counter.Inc calling Add, Obs.Handler composing
// Registry and Spans).
var ObsGuard = &Analyzer{
	Name:      "obsguard",
	Doc:       "exported methods on obs hook types must nil-guard their receiver or delegate to a guarded method",
	SkipTests: true,
	Run:       runObsGuard,
}

// guardedTypes are the hook types components hold as possibly-nil
// fields.
var guardedTypes = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Registry":  true,
	"Spans":     true,
	"SpanRec":   true,
	"Obs":       true,
}

func runObsGuard(p *Pass) {
	if p.File.Ast.Name.Name != "obs" {
		return
	}
	for _, decl := range p.File.Ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
			continue
		}
		recv, typ := receiver(p, fd)
		if typ == "" || !guardedTypes[typ] {
			continue
		}
		if nilGuarded(fd.Body, recv) || onlyMethodCalls(fd.Body, recv) {
			continue
		}
		p.Reportf(fd.Pos(),
			"(*%s).%s is not nil-receiver-safe: guard %q against nil in the first two statements or delegate to a guarded method",
			typ, fd.Name.Name, recv)
	}
}

// receiver resolves the receiver identifier and pointed-to type name
// through the type checker ("" type for value receivers, which cannot
// be nil). Resolving by type identity instead of receiver syntax means
// a parenthesized receiver like `(c *(Counter))` cannot dodge the
// check the way it dodged the old StarExpr{Ident} pattern match.
func receiver(p *Pass, fd *ast.FuncDecl) (name, typ string) {
	fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return "", ""
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", ""
	}
	ptr, ok := types.Unalias(sig.Recv().Type()).(*types.Pointer)
	if !ok {
		return "", ""
	}
	named := namedOf(ptr.Elem())
	if named == nil {
		return "", ""
	}
	if len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		name = fd.Recv.List[0].Names[0].Name
	}
	return name, named.Obj().Name()
}

// nilGuarded reports whether one of the first two statements is an if
// whose condition compares the receiver against nil, with no use of
// the receiver before the guard.
func nilGuarded(body *ast.BlockStmt, recv string) bool {
	if recv == "" {
		return false
	}
	for i, stmt := range body.List {
		if i >= 2 {
			break
		}
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok {
			if mentions(stmt, recv) {
				return false
			}
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			if isIdent(bin.X, recv) && isIdent(bin.Y, "nil") {
				found = true
			}
			if isIdent(bin.Y, recv) && isIdent(bin.X, "nil") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// mentions reports whether n references the receiver identifier.
func mentions(n ast.Node, recv string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if isIdentNode(x, recv) {
			found = true
		}
		return !found
	})
	return found
}

// onlyMethodCalls reports whether every use of the receiver in the
// body is as the receiver of a method call (recv.M(...)): the method
// never dereferences the receiver itself, so nil-safety is inherited
// from the (guarded) callees. Field access like recv.v disqualifies.
func onlyMethodCalls(body *ast.BlockStmt, recv string) bool {
	if recv == "" {
		return false
	}
	callRecv := map[*ast.Ident]bool{}
	uses := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
					callRecv[id] = true
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == recv {
			uses++
		}
		return true
	})
	if uses == 0 {
		// A body that never touches the receiver cannot dereference it.
		return true
	}
	bad := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == recv && !callRecv[id] {
			bad = true
		}
		return !bad
	})
	return !bad
}

func isIdentNode(n ast.Node, name string) bool {
	id, ok := n.(*ast.Ident)
	return ok && id.Name == name
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
