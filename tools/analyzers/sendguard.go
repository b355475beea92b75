package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// SendGuard is the backpressure rule lockguard only half covers: a
// protocol dispatch path must never block on a bare channel send. The
// dispatcher goroutine is what drains the peer's socket — if it parks
// on a full channel because a consumer is slow, the peer behind it
// stalls, and a consumer that needs the dispatcher to make progress
// deadlocks the connection outright. Sends on a dispatch path must be
// non-blocking (select with default), bounded (select with a
// timeout/cancel alternative), or handed to another goroutine.
//
// Dispatch paths are found through the typed call graph: roots are
// internal/ functions named handle*/dispatch* whose signature touches
// protocol.Envelope, plus any function dispatching on protocol.MsgType
// constants; reachability follows synchronous call edges only (a
// goroutine spawned by a handler has its own backpressure story).
// `//sendguard:ok <reason>` on the send's line waives a finding.
var SendGuard = &Analyzer{
	Name:      "sendguard",
	Doc:       "no blocking channel send on a protocol dispatch path: use select with default or a timeout",
	SkipTests: true,
	Run:       runSendGuard,
}

func runSendGuard(p *Pass) {
	if p.Pkg.Info == nil {
		return
	}
	reach := sendguardReachable(p.Prog)
	for fd, fn := range p.fileFuncs() {
		if !reach[fn] || fd.Body == nil {
			continue
		}
		checkBlockingSends(p, fd.Body)
	}
}

// sendguardReachable computes (once per program) the functions on a
// protocol dispatch path: handler/dispatcher roots and everything they
// synchronously call.
func sendguardReachable(prog *Program) map[*types.Func]bool {
	if prog.reachMemo == nil {
		prog.reachMemo = map[string]map[*types.Func]bool{}
	}
	if r, ok := prog.reachMemo["sendguard"]; ok {
		return r
	}
	cg := prog.CallGraph()
	var roots []*types.Func
	for _, fn := range cg.Funcs() {
		pkg := cg.PackageOf(fn)
		if pkg == nil || !strings.Contains(strings.ReplaceAll(pkg.Dir, "\\", "/")+"/", "internal/") {
			continue
		}
		if isHandlerName(fn.Name()) && sigTouchesEnvelope(fn) {
			roots = append(roots, fn)
			continue
		}
		if decl := cg.Decl(fn); decl != nil && decl.Body != nil && pkg.Info != nil &&
			dispatchesOnMsgType(pkg.Info, decl.Body) {
			roots = append(roots, fn)
		}
	}
	r := cg.Reachable(roots, true)
	prog.reachMemo["sendguard"] = r
	return r
}

// isHandlerName matches the repo's handler naming convention.
func isHandlerName(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "handle") || strings.HasPrefix(lower, "dispatch")
}

// sigTouchesEnvelope reports whether the signature carries a
// protocol.Envelope (or pointer to one) in a parameter or result.
func sigTouchesEnvelope(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			if isEnvelopeType(tuple.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

// dispatchesOnMsgType reports whether the body switches over
// protocol.MsgType values.
func dispatchesOnMsgType(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return !found
		}
		if named := namedOf(info.Types[sw.Tag].Type); named != nil &&
			named.Obj().Name() == "MsgType" && fromProtocol(named.Obj()) {
			found = true
		}
		return !found
	})
	return found
}

// checkBlockingSends flags channel sends that can park the dispatch
// goroutine: a bare send statement, or a select send with neither a
// default nor an alternative receive to escape through. Function
// literals and go statements are skipped — they are not the
// dispatcher's blocking behaviour.
func checkBlockingSends(p *Pass, body *ast.BlockStmt) {
	report := func(n ast.Node) {
		line := p.Pkg.Fset.Position(n.Pos()).Line
		if directiveAtLine(p, "sendguard:ok", line) {
			return
		}
		p.Reportf(n.Pos(),
			"blocking channel send on a protocol dispatch path: a slow consumer stalls the dispatcher and the peer behind it; use select with default or a timeout (//sendguard:ok <reason> to waive)")
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			hasEscape := false
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm == nil {
					hasEscape = true // default: the send cannot block
					continue
				}
				if _, isSend := cc.Comm.(*ast.SendStmt); !isSend {
					hasEscape = true // a receive alternative bounds the wait
				}
			}
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if send, isSend := cc.Comm.(*ast.SendStmt); isSend && !hasEscape {
					report(send)
				}
				for _, s := range cc.Body {
					ast.Inspect(s, visit)
				}
			}
			return false
		case *ast.SendStmt:
			report(n)
		}
		return true
	}
	ast.Inspect(body, visit)
}
