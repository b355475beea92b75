package classad

// Partial evaluation: rewrite an expression with everything that is
// already determined by one side of the match folded to literals,
// leaving only the genuinely bilateral parts symbolic. The analyzer
// uses it to show a customer the *residual* requirement their job
// actually imposes on providers — e.g. Figure 2's
//
//	other.Memory >= self.Memory
//
// becomes
//
//	other.Memory >= 31
//
// once the job's own Memory is substituted, which is the form an
// administrator can act on.

// groundChecker decides whether an expression's value is fully
// determined by the self ad: no other-scope references, no unresolved
// names (an unqualified name missing from self could still resolve in
// the other ad at match time), no impure functions, no cycles.
type groundChecker struct {
	self    *Ad
	visited map[string]bool
}

func (g *groundChecker) ground(e Expr) bool {
	switch n := e.(type) {
	case litExpr:
		return true
	case attrRef:
		if n.scope == ScopeOther {
			return false
		}
		if g.visited[n.key] {
			return false // cycle: evaluation would be an error anyway
		}
		def, ok := g.self.LookupKey(n.key)
		if !ok {
			return false // might fall back to the other ad
		}
		g.visited[n.key] = true
		ok = g.ground(def)
		delete(g.visited, n.key)
		return ok
	case unaryExpr:
		return g.ground(n.arg)
	case binaryExpr:
		return g.ground(n.l) && g.ground(n.r)
	case condExpr:
		return g.ground(n.cond) && g.ground(n.then) && g.ground(n.els)
	case callExpr:
		if b, ok := builtins[n.key]; ok && b.Impure {
			return false // it reads the environment: clock or random stream
		}
		for _, a := range n.args {
			if !g.ground(a) {
				return false
			}
		}
		return true
	case listExpr:
		for _, el := range n.elems {
			if !g.ground(el) {
				return false
			}
		}
		return true
	case adExpr:
		// A nested ad literal's attributes are evaluated in the match,
		// with the other ad in scope, and may call impure builtins: a
		// fold against self alone would freeze what they read there.
		return false
	case selectExpr:
		return g.ground(n.base)
	case indexExpr:
		return g.ground(n.base) && g.ground(n.index)
	default:
		return false
	}
}

// PartialEval rewrites e with respect to self: ground subexpressions
// fold to their literal values; the rest is rebuilt with algebraic
// simplifications (identity and domination laws of the three-valued
// logic, literal conditionals). The result evaluates identically to e
// in any future two-way match with self — it is a rewriting, not an
// approximation.
func PartialEval(e Expr, self *Ad, env *Env) Expr {
	if self == nil {
		self = NewAd()
	}
	p := &partialer{
		g:   &groundChecker{self: self, visited: make(map[string]bool)},
		ad:  self,
		env: env,
	}
	return p.rewrite(e)
}

type partialer struct {
	g   *groundChecker
	ad  *Ad
	env *Env
}

// fold evaluates a ground expression to a literal.
func (p *partialer) fold(e Expr) Expr {
	return Lit(EvalExprEnv(e, p.ad, p.env))
}

func (p *partialer) rewrite(e Expr) Expr {
	if p.g.ground(e) {
		return p.fold(e)
	}
	out := p.rewriteChildren(e)
	// Child folds can make the rebuilt node ground (e.g. a
	// conditional collapsing to a literal under a negation); fold
	// again so the rewriting is a fixed point.
	if p.g.ground(out) {
		return p.fold(out)
	}
	return out
}

func (p *partialer) rewriteChildren(e Expr) Expr {
	switch n := e.(type) {
	case unaryExpr:
		return unaryExpr{n.op, p.rewrite(n.arg)}
	case binaryExpr:
		l := p.rewrite(n.l)
		r := p.rewrite(n.r)
		return p.simplifyBinary(n.op, l, r)
	case condExpr:
		cond := p.rewrite(n.cond)
		if lit, ok := cond.(litExpr); ok {
			b := toBool(lit.v)
			if bv, ok := b.BoolVal(); ok {
				if bv {
					return p.rewrite(n.then)
				}
				return p.rewrite(n.els)
			}
			// undefined/error condition: the conditional's value is
			// that condition, regardless of the arms.
			return Lit(b)
		}
		return condExpr{cond, p.rewrite(n.then), p.rewrite(n.els)}
	case callExpr:
		args := make([]Expr, len(n.args))
		for i, a := range n.args {
			args[i] = p.rewrite(a)
		}
		return callExpr{n.name, n.key, args}
	case listExpr:
		elems := make([]Expr, len(n.elems))
		for i, el := range n.elems {
			elems[i] = p.rewrite(el)
		}
		return newList(elems)
	case selectExpr:
		return selectExpr{p.rewrite(n.base), n.name, n.key}
	case indexExpr:
		return indexExpr{p.rewrite(n.base), p.rewrite(n.index)}
	default:
		return e
	}
}

// simplifyBinary applies the domination laws, which are exact in the
// three-valued logic whatever the other operand turns out to be:
// false dominates &&, true dominates || (even over error — see
// evalAnd/evalOr). The identity laws (true && x == x) are deliberately
// NOT applied: if x evaluates to a non-boolean, `true && x` coerces it
// while bare `x` would not, and a Constraint must evaluate to the
// boolean true — so the rewriting would change match outcomes.
func (p *partialer) simplifyBinary(op Op, l, r Expr) Expr {
	lb, lok := litBool(l)
	rb, rok := litBool(r)
	switch op {
	case OpAnd:
		if lok && !lb || rok && !rb {
			return Lit(Bool(false))
		}
	case OpOr:
		if lok && lb || rok && rb {
			return Lit(Bool(true))
		}
	}
	return binaryExpr{op, l, r}
}

// litBool extracts a literal boolean (with numeric coercion) from an
// expression.
func litBool(e Expr) (value, ok bool) {
	lit, isLit := e.(litExpr)
	if !isLit {
		return false, false
	}
	b := toBool(lit.v)
	return b.BoolVal()
}
