package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// LockGuard flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: an outbound dial, a protocol round-trip, a
// conversation on a cached connection (netx.Dialer.Do), or a channel
// send. A lock held across network I/O couples every
// contender's latency to a peer's responsiveness — the collector
// serving a query cannot afford to stall behind a slow advertiser —
// and a blocking send under a lock is a classic self-deadlock when the
// reader needs the same lock to drain. Sends inside a select with a
// default case are exempt: they cannot block.
//
// The walk is per-function and statement-ordered: a receiver spelled X
// is considered held between X.Lock()/X.RLock() and
// X.Unlock()/X.RUnlock() in statement order, and a deferred unlock
// keeps X held until return (that is the point: everything after the
// defer runs under the lock). Function literals and go statements
// start with no locks held. Lock recognition and blocking-call
// classification are typed — only real sync.(RW)Mutex/Locker methods
// transition the held set, only real package-net dials and protocol
// round-trips classify as blocking — and calls to same-package helpers
// are followed across files: a dial buried in a helper in another file
// is still a dial under the lock. `//lockguard:ok <reason>` on the
// offending line waives a finding.
var LockGuard = &Analyzer{
	Name:      "lockguard",
	Doc:       "flags channel sends and netx/protocol/net I/O while a sync mutex is held, following same-package helper calls",
	SkipTests: true,
	Run:       runLockGuard,
}

// lockguardProtoOps are the protocol package calls that block on a
// peer's socket.
var lockguardProtoOps = map[string]bool{"Write": true, "Read": true, "Exchange": true}

func runLockGuard(p *Pass) {
	g := &lockGuard{pass: p}
	for _, decl := range p.File.Ast.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		g.stmts(fn.Body.List, map[string]bool{})
	}
}

type lockGuard struct {
	pass *Pass
}

// report emits a finding unless a //lockguard:ok directive waives it.
func (g *lockGuard) report(pos ast.Node, format string, args ...any) {
	line := g.pass.Pkg.Fset.Position(pos.Pos()).Line
	if directiveAtLine(g.pass, "lockguard:ok", line) {
		return
	}
	g.pass.Reportf(pos.Pos(), format, args...)
}

// heldNames renders the held set for a finding message.
func heldNames(held map[string]bool) string {
	name := ""
	for k := range held {
		if name == "" || k < name {
			name = k
		}
	}
	return name
}

// stmts walks a statement list in order, threading the held-lock set.
func (g *lockGuard) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		g.stmt(s, held)
	}
}

// copyHeld forks the held set for a branch.
func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

func (g *lockGuard) stmt(s ast.Stmt, held map[string]bool) {
	switch n := s.(type) {
	case *ast.ExprStmt:
		g.expr(n.X, held)
	case *ast.SendStmt:
		g.expr(n.Chan, held)
		g.expr(n.Value, held)
		if len(held) > 0 {
			g.report(n,
				"channel send while %s is held: a blocked receiver deadlocks every contender of the lock", heldNames(held))
		}
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			g.expr(e, held)
		}
		for _, e := range n.Lhs {
			g.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						g.expr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			g.expr(e, held)
		}
	case *ast.DeferStmt:
		// A deferred unlock releases only at return, so the lock stays
		// held for the rest of the function — modeled by not touching
		// the held set here. The deferred call itself runs outside the
		// walked region; only its arguments are evaluated now.
		for _, arg := range n.Call.Args {
			g.expr(arg, held)
		}
	case *ast.GoStmt:
		// A spawned goroutine does not hold the caller's locks.
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			g.stmts(lit.Body.List, map[string]bool{})
		}
		for _, arg := range n.Call.Args {
			g.expr(arg, held)
		}
	case *ast.BlockStmt:
		g.stmts(n.List, held)
	case *ast.IfStmt:
		if n.Init != nil {
			g.stmt(n.Init, held)
		}
		g.expr(n.Cond, held)
		g.stmts(n.Body.List, copyHeld(held))
		if n.Else != nil {
			g.stmt(n.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if n.Init != nil {
			g.stmt(n.Init, held)
		}
		if n.Cond != nil {
			g.expr(n.Cond, held)
		}
		g.stmts(n.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		g.expr(n.X, held)
		g.stmts(n.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if n.Init != nil {
			g.stmt(n.Init, held)
		}
		if n.Tag != nil {
			g.expr(n.Tag, held)
		}
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				g.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				g.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range n.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			// A send in a select with a default case cannot block.
			if send, ok := cc.Comm.(*ast.SendStmt); ok && !hasDefault && len(held) > 0 {
				g.report(send,
					"channel send while %s is held: a blocked receiver deadlocks every contender of the lock", heldNames(held))
			}
			g.stmts(cc.Body, copyHeld(held))
		}
	case *ast.LabeledStmt:
		g.stmt(n.Stmt, held)
	}
}

// expr scans one expression: lock-state transitions, blocking calls,
// helper calls that block transitively, and function literals (which
// start lock-free).
func (g *lockGuard) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	info := g.pass.Pkg.Info
	ast.Inspect(e, func(n ast.Node) bool {
		switch c := n.(type) {
		case *ast.FuncLit:
			g.stmts(c.Body.List, map[string]bool{})
			return false
		case *ast.CallExpr:
			if name, method, isSync := syncLockMethod(info, c); isSync {
				switch {
				case method == "Lock" || method == "RLock":
					if len(c.Args) == 0 {
						held[name] = true
					}
				case method == "Unlock" || method == "RUnlock":
					delete(held, name)
				}
			}
			if len(held) > 0 {
				if msg := blockingCall(info, c); msg != "" {
					g.report(c,
						"%s while %s is held: network latency becomes lock hold time for every contender", msg, heldNames(held))
				} else if callee, op := g.blockingHelper(c); callee != "" {
					g.report(c,
						"call to %s, which performs %s, while %s is held: network latency becomes lock hold time for every contender (//lockguard:ok <reason> to waive)",
						callee, op, heldNames(held))
				}
			}
		}
		return true
	})
}

// syncLockMethod recognizes a Lock/RLock/Unlock/RUnlock call on a real
// sync.(RW)Mutex or sync.Locker — by method identity, so a mutex
// reached through struct fields or an embedded field still counts, and
// an unrelated type's Lock method does not.
func syncLockMethod(info *types.Info, c *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := c.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	if !fromPkg(info.Uses[sel.Sel], "sync") {
		return "", "", false
	}
	return exprString(sel.X), sel.Sel.Name, true
}

// blockingCall classifies a call as directly network-blocking and
// names it, or returns "". Classification is by object identity:
// package-net dials, protocol read/write round-trips and the
// conversations netx.Dialer.Do runs resolve through any import
// spelling; a Dial* method on any receiver (netx.Dialer, a collector
// client's embedded dialer, ...) opens an outbound connection by repo
// convention.
func blockingCall(info *types.Info, c *ast.CallExpr) string {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := info.Uses[sel.Sel]
	if pkgScoped(obj) {
		if fromPkg(obj, "net") && dialNames[obj.Name()] {
			return fmt.Sprintf("%s.%s", writtenQualifier(sel, "net"), obj.Name())
		}
		if fromProtocol(obj) && lockguardProtoOps[obj.Name()] {
			return fmt.Sprintf("%s.%s round-trip", writtenQualifier(sel, "protocol"), obj.Name())
		}
	}
	if isDialerDo(obj) {
		return exprString(sel.X) + ".Do conversation"
	}
	switch sel.Sel.Name {
	case "Dial", "DialContext":
		return exprString(sel.X) + "." + sel.Sel.Name
	}
	return ""
}

// isDialerDo reports whether obj is the Do method of netx.Dialer,
// which dials or reuses a connection and runs a whole conversation on
// it.
func isDialerDo(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "Do" || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/netx") {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	return named != nil && named.Obj().Name() == "Dialer"
}

// blockingHelper reports whether the call statically resolves to a
// same-package function whose body (transitively, still within the
// package) performs a blocking operation. Returns the callee's name
// and a description of the operation, or "". This is the cross-file
// half of the invariant: the old single-file matcher could not see a
// dial two files away.
func (g *lockGuard) blockingHelper(c *ast.CallExpr) (callee, op string) {
	fn := StaticCallee(g.pass.Pkg.Info, c)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() != g.pass.Pkg.Types {
		return "", ""
	}
	op = g.pass.Prog.blockingSummary(fn, map[*types.Func]bool{})
	if op == "" {
		return "", ""
	}
	return fn.Name(), op
}

// blockingSummary computes (memoized) whether fn's body performs a
// blocking operation — a direct blocking call, a bare channel send, or
// a call to another same-package function that does — and describes
// it. Function literals and go statements inside fn are skipped: what
// a spawned goroutine or stored closure does is not charged to fn's
// caller.
func (prog *Program) blockingSummary(fn *types.Func, visiting map[*types.Func]bool) string {
	if prog.blockSumm == nil {
		prog.blockSumm = map[*types.Func]string{}
	}
	if s, ok := prog.blockSumm[fn]; ok {
		return s
	}
	if visiting[fn] {
		return ""
	}
	visiting[fn] = true
	cg := prog.CallGraph()
	decl := cg.Decl(fn)
	pkg := cg.PackageOf(fn)
	summary := ""
	if decl != nil && decl.Body != nil && pkg != nil && pkg.Info != nil {
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				if summary != "" {
					return false
				}
				switch n := n.(type) {
				case *ast.FuncLit, *ast.GoStmt:
					return false
				case *ast.SelectStmt:
					// Sends under a default-carrying select cannot block.
					for _, c := range n.Body.List {
						if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
							return false
						}
					}
				case *ast.SendStmt:
					summary = "a channel send"
				case *ast.CallExpr:
					if msg := blockingCall(pkg.Info, n); msg != "" {
						summary = msg
						return false
					}
					if callee := StaticCallee(pkg.Info, n); callee != nil && callee.Pkg() == pkg.Types {
						if s := prog.blockingSummary(callee, visiting); s != "" {
							summary = s
							return false
						}
					}
				}
				return true
			})
		}
		walk(decl.Body)
	}
	prog.blockSumm[fn] = summary
	return summary
}

// exprString renders simple receiver chains (a, a.b, a.b.c) for
// held-set keys and messages; anything more exotic collapses to a
// stable placeholder so Lock/Unlock on the same expression still pair.
func exprString(e ast.Expr) string {
	switch n := e.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.SelectorExpr:
		return exprString(n.X) + "." + n.Sel.Name
	case *ast.ParenExpr:
		return exprString(n.X)
	case *ast.UnaryExpr:
		return exprString(n.X)
	case *ast.IndexExpr:
		return exprString(n.X) + "[...]"
	case *ast.CallExpr:
		return exprString(n.Fun) + "()"
	default:
		return "mutex"
	}
}
