package analyzers

// Typed resolution helpers shared by the analyzers: object identity
// instead of identifier text, so aliased imports, dot imports and type
// aliases cannot dodge a check.

import (
	"go/ast"
	"go/types"
	"strings"
)

// use resolves an identifier to the object it refers to, or nil.
func (p *Pass) use(id *ast.Ident) types.Object {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.Uses[id]
}

// fromPkg reports whether obj belongs to the package with the given
// import path.
func fromPkg(obj types.Object, pkgPath string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// pkgScoped reports whether obj is declared at package scope — a
// top-level function, type, var or const, as opposed to a method or
// field (nodial flags `net.Dial`, not every method on a net type).
func pkgScoped(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// fromProtocol reports whether obj belongs to the wire-protocol
// package. Fixture packages import it under the real module path, so
// matching on the path suffix keeps fixtures and the live tree on the
// same rule.
func fromProtocol(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/protocol")
}

// namedOf unwraps aliases and one level of pointer and returns the
// named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// isEnvelopeType reports whether t is protocol.Envelope (through any
// alias), optionally behind one pointer.
func isEnvelopeType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Name() == "Envelope" && fromProtocol(named.Obj())
}

// typeOf returns the type of e, or nil.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.Types[e].Type
}

// msgConstName resolves an expression to the canonical protocol
// message-type constant name (TypeMatch, TypeAck, ...) by constant
// value, or "". Identity is by value and type, so dot imports and
// local constant aliases resolve to the same canonical name the
// analyzers' vocabulary lists use.
func (p *Pass) msgConstName(e ast.Expr) string {
	if p.Pkg.Info == nil {
		return ""
	}
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return ""
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Name() != "MsgType" || !fromProtocol(named.Obj()) {
		return ""
	}
	return p.Prog.msgConstCanon(named.Obj().Pkg())[tv.Value.ExactString()]
}

// msgConstCanon builds (once) the constant-value -> canonical-name
// table from the protocol package's own scope.
func (prog *Program) msgConstCanon(protoPkg *types.Package) map[string]string {
	if prog.msgConsts != nil {
		return prog.msgConsts
	}
	canon := map[string]string{}
	scope := protoPkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "Type") {
			continue
		}
		named := namedOf(c.Type())
		if named == nil || named.Obj().Name() != "MsgType" {
			continue
		}
		canon[c.Val().ExactString()] = name
	}
	prog.msgConsts = canon
	return canon
}

// writtenQualifier renders the package qualifier as the file wrote it:
// the selector base for `stdnet.Dial`, or fallback (the real package
// name) for a dot import's bare identifier.
func writtenQualifier(e ast.Expr, fallback string) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return fallback
}

// enclosingFuncs returns, for each file function declaration, its
// *types.Func — the bridge from per-file syntax to call-graph facts.
func (p *Pass) fileFuncs() map[*ast.FuncDecl]*types.Func {
	out := map[*ast.FuncDecl]*types.Func{}
	if p.Pkg.Info == nil {
		return out
	}
	for _, decl := range p.File.Ast.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[fd] = fn
			}
		}
	}
	return out
}

// directiveAtLine reports whether a comment containing the directive
// sits on the given source line.
func directiveAtLine(p *Pass, directive string, line int) bool {
	for _, cg := range p.File.Ast.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, directive) &&
				p.Pkg.Fset.Position(c.Pos()).Line == line {
				return true
			}
		}
	}
	return false
}
