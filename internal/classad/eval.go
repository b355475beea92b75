package classad

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// maxEvalDepth bounds expression recursion so that deeply nested or
// adversarial ads evaluate to error instead of exhausting the stack.
const maxEvalDepth = 512

// Env supplies the external environment visible to builtin functions.
// Injecting it keeps evaluation deterministic under test and lets the
// discrete-event simulator supply virtual time.
type Env struct {
	// Now returns the current time in seconds since the Unix epoch;
	// used by the time() builtin and by ad-lifetime bookkeeping.
	Now func() int64
	// Rand returns a uniform variate in [0,1); used by random().
	Rand func() float64
}

var defaultEnvOnce sync.Once
var defaultEnvVal *Env

// DefaultEnv returns the process-wide environment: real wall-clock
// time and a private seeded random source.
func DefaultEnv() *Env {
	defaultEnvOnce.Do(func() {
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(time.Now().UnixNano())) //determguard:ok DefaultEnv IS the wall-clock seam; replayed code gets an injected Env
		defaultEnvVal = &Env{
			Now: func() int64 { return time.Now().Unix() }, //determguard:ok DefaultEnv IS the wall-clock seam; replayed code gets an injected Env
			Rand: func() float64 {
				mu.Lock()
				defer mu.Unlock()
				return rng.Float64()
			},
		}
	})
	return defaultEnvVal
}

// FixedEnv returns a deterministic environment: time frozen at now and
// a random stream seeded with seed. Tests and simulations use this.
func FixedEnv(now int64, seed int64) *Env {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return &Env{
		Now: func() int64 { return now },
		Rand: func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return rng.Float64()
		},
	}
}

// progKey identifies an (ad, attribute) pair under evaluation, for
// circular-reference detection. name is the folded attribute name.
type progKey struct {
	ad   *Ad
	name string
}

// evalState is what every context of one evaluation shares: the
// environment, how many attribute references deep the evaluation is,
// and the circularity ledger — a stack of the (ad, attribute) pairs
// whose definitions are being evaluated right now. References nest a
// handful deep, so a linear search of the stack beats a map, and a
// state is recycled through statePool: an evaluation allocates neither.
type evalState struct {
	env    *Env
	depth  int
	inprog []progKey
}

var statePool = sync.Pool{New: func() any { return new(evalState) }}

// evalCtx is the scope an expression is evaluated in: the ad whose
// attributes unqualified and self. references resolve in, the
// candidate ad of a two-way match (nil outside one), and the shared
// state. It is passed by value, so entering another scope (flip, sub)
// allocates nothing.
type evalCtx struct {
	self, other *Ad
	st          *evalState
}

// newCtx starts an evaluation; the caller ends it with done.
func newCtx(self *Ad, other *Ad, env *Env) evalCtx {
	if env == nil {
		env = DefaultEnv()
	}
	st := statePool.Get().(*evalState)
	st.env, st.depth = env, 0
	return evalCtx{self: self, other: other, st: st}
}

// done recycles the evaluation's state. Every evalAttr popped what it
// pushed, so the ledger is empty and holds no ad.
func (ctx evalCtx) done() {
	ctx.st.env = nil
	statePool.Put(ctx.st)
}

// flip returns the context for evaluating an attribute that lives in
// the other ad: scopes swap, the circularity ledger is shared so that
// mutual recursion across the two ads is still detected.
func (ctx evalCtx) flip() evalCtx {
	return evalCtx{self: ctx.other, other: ctx.self, st: ctx.st}
}

// sub returns a context scoped to a nested ad reached by selection or
// subscripting. The nested ad becomes the only lexical scope; the
// match candidate is preserved.
func (ctx evalCtx) sub(ad *Ad) evalCtx {
	return evalCtx{self: ad, other: ctx.other, st: ctx.st}
}

// evalAttr evaluates e, the definition of ad's attribute name (key is
// the folded name; ad must be the scope of ctx), with
// circular-reference detection.
func (ctx evalCtx) evalAttr(ad *Ad, name, key string, e Expr) Value {
	st := ctx.st
	for _, p := range st.inprog {
		if p.ad == ad && p.name == key {
			return Erroneous("circular reference to attribute %q", name)
		}
	}
	st.inprog = append(st.inprog, progKey{ad, key})
	v := e.eval(ctx)
	top := len(st.inprog) - 1
	st.inprog[top] = progKey{} // let the ad go
	st.inprog = st.inprog[:top]
	return v
}

// EvalExpr evaluates e with ad as the self scope and no match
// candidate, using the default environment. References to attributes
// missing from ad evaluate to undefined.
func EvalExpr(e Expr, ad *Ad) Value { return EvalExprEnv(e, ad, nil) }

// EvalExprEnv is EvalExpr with an explicit environment (nil means the
// default environment).
func EvalExprEnv(e Expr, ad *Ad, env *Env) Value {
	if ad == nil {
		ad = NewAd()
	}
	ctx := newCtx(ad, nil, env)
	v := e.eval(ctx)
	ctx.done()
	return v
}

// EvalString parses src as an expression and evaluates it against ad.
func EvalString(src string, ad *Ad) (Value, error) {
	e, err := ParseExpr(src)
	if err != nil {
		return Undef(), err
	}
	return EvalExpr(e, ad), nil
}

// Eval evaluates the named attribute of the ad with no match
// candidate. A missing attribute yields undefined.
func (a *Ad) Eval(name string) Value { return a.EvalEnv(name, nil) }

// EvalEnv is Eval with an explicit environment.
func (a *Ad) EvalEnv(name string, env *Env) Value {
	return a.EvalAgainst(name, nil, env)
}

// EvalAgainst evaluates the named attribute of ad a in a two-way match
// context where other is the candidate ad, as the matchmaker does for
// Constraint and Rank (paper §3.2).
func (a *Ad) EvalAgainst(name string, other *Ad, env *Env) Value {
	return a.evalKey(name, Fold(name), other, env)
}

// evalKey is EvalAgainst for a caller that already holds the folded
// name.
func (a *Ad) evalKey(name, key string, other *Ad, env *Env) Value {
	e, ok := a.LookupKey(key)
	if !ok {
		return Undef()
	}
	ctx := newCtx(a, other, env)
	v := ctx.evalAttr(a, name, key, e)
	ctx.done()
	return v
}

// ---- Expr implementations ----

func (e litExpr) eval(ctx evalCtx) Value { return e.v }

func (e attrRef) eval(ctx evalCtx) Value {
	// Unqualified: the scope's own ad, then the other ad. The fallback
	// to the other ad is what lets the paper's Figure 2 job constraint
	// mention Arch, OpSys and Disk, which only the machine ad defines.
	if e.scope != ScopeOther {
		if ex, ok := ctx.self.LookupKey(e.key); ok {
			return e.evalIn(ctx, ex)
		}
	}
	if e.scope != ScopeSelf {
		if ex, ok := ctx.other.LookupKey(e.key); ok {
			return e.evalIn(ctx.flip(), ex)
		}
	}
	return Undef()
}

// evalIn evaluates ex, the definition the reference resolved to in
// ctx's own ad, one reference deeper.
func (e attrRef) evalIn(ctx evalCtx, ex Expr) Value {
	if lit, ok := ex.(litExpr); ok {
		return lit.v // most attributes are literals: nothing to recurse into
	}
	st := ctx.st
	if st.depth >= maxEvalDepth {
		return Erroneous("expression too deeply nested")
	}
	st.depth++
	v := ctx.evalAttr(ctx.self, e.name, e.key, ex)
	st.depth--
	return v
}

func (e selectExpr) eval(ctx evalCtx) Value {
	base := e.base.eval(ctx)
	switch base.Type() {
	case UndefinedType:
		return Undef()
	case ErrorType:
		return base
	case AdType:
		ad, _ := base.AdVal()
		if ex, ok := ad.LookupKey(e.key); ok {
			return ctx.sub(ad).evalAttr(ad, e.name, e.key, ex)
		}
		return Undef()
	default:
		return Erroneous("selection .%s applied to %s", e.name, base.Type())
	}
}

func (e indexExpr) eval(ctx evalCtx) Value {
	base := e.base.eval(ctx)
	idx := e.index.eval(ctx)
	if base.IsError() {
		return base
	}
	if idx.IsError() {
		return idx
	}
	if base.IsUndefined() || idx.IsUndefined() {
		return Undef()
	}
	switch base.Type() {
	case ListType:
		list, _ := base.ListVal()
		i, ok := idx.IntVal()
		if !ok {
			return Erroneous("list subscript must be an integer, got %s", idx.Type())
		}
		if i < 0 || i >= int64(len(list)) {
			return Erroneous("list subscript %d out of range [0,%d)", i, len(list))
		}
		return list[i]
	case AdType:
		ad, _ := base.AdVal()
		name, ok := idx.StringVal()
		if !ok {
			return Erroneous("classad subscript must be a string, got %s", idx.Type())
		}
		key := Fold(name)
		if ex, ok := ad.LookupKey(key); ok {
			return ctx.sub(ad).evalAttr(ad, name, key, ex)
		}
		return Undef()
	case StringType:
		s, _ := base.StringVal()
		i, ok := idx.IntVal()
		if !ok {
			return Erroneous("string subscript must be an integer, got %s", idx.Type())
		}
		if i < 0 || i >= int64(len(s)) {
			return Erroneous("string subscript %d out of range [0,%d)", i, len(s))
		}
		return Str(string(s[i]))
	default:
		return Erroneous("subscript applied to %s", base.Type())
	}
}

func (e unaryExpr) eval(ctx evalCtx) Value {
	v := e.arg.eval(ctx)
	switch e.op {
	case OpNot:
		switch b := toBool(v); b.Type() {
		case BooleanType:
			return Bool(!b.IsTrue())
		default:
			return b // undefined or error
		}
	case OpNeg:
		switch v.Type() {
		case UndefinedType, ErrorType:
			return v
		case IntegerType:
			i, _ := v.IntVal()
			return Int(-i)
		case RealType:
			r, _ := v.RealVal()
			return Real(-r)
		case BooleanType:
			// Booleans coerce to integers in arithmetic, as the
			// paper's Figure 1 Rank (member(...)*10 + member(...))
			// requires.
			if v.IsTrue() {
				return Int(-1)
			}
			return Int(0)
		default:
			return Erroneous("unary - applied to %s", v.Type())
		}
	case OpPlus:
		switch v.Type() {
		case UndefinedType, ErrorType, IntegerType, RealType:
			return v
		case BooleanType:
			if v.IsTrue() {
				return Int(1)
			}
			return Int(0)
		default:
			return Erroneous("unary + applied to %s", v.Type())
		}
	}
	return Erroneous("bad unary operator")
}

func (e binaryExpr) eval(ctx evalCtx) Value {
	switch e.op {
	case OpAnd:
		return evalAnd(ctx, e.l, e.r)
	case OpOr:
		return evalOr(ctx, e.l, e.r)
	case OpIs:
		return Bool(e.l.eval(ctx).Identical(e.r.eval(ctx)))
	case OpIsnt:
		return Bool(!e.l.eval(ctx).Identical(e.r.eval(ctx)))
	}
	l := e.l.eval(ctx)
	r := e.r.eval(ctx)
	switch e.op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(e.op, l, r)
	case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe:
		return evalCompare(e.op, l, r)
	}
	return Erroneous("bad binary operator")
}

func (e condExpr) eval(ctx evalCtx) Value {
	c := toBool(e.cond.eval(ctx))
	switch c.Type() {
	case BooleanType:
		if c.IsTrue() {
			return e.then.eval(ctx)
		}
		return e.els.eval(ctx)
	default:
		return c // undefined or error propagates; neither arm runs
	}
}

func (e callExpr) eval(ctx evalCtx) Value {
	b, ok := builtins[e.key]
	if !ok {
		return Erroneous("call to unknown function %q", e.name)
	}
	if n := len(e.args); n < b.Min || b.Max >= 0 && n > b.Max {
		return b.arityErr(n)
	}
	return b.fn(ctx, b.Name, e.args)
}

func (e listExpr) eval(ctx evalCtx) Value {
	if e.lit != nil {
		return ListOf(e.lit...)
	}
	out := make([]Value, len(e.elems))
	for i, el := range e.elems {
		out[i] = el.eval(ctx)
	}
	return ListOf(out...)
}

func (e adExpr) eval(ctx evalCtx) Value { return AdValue(e.ad) }

// ---- operator semantics ----

// toBool coerces a value to the three-valued Boolean domain. Booleans
// pass through; numbers coerce (non-zero is true), matching the
// deployed Condor system in which WantCheckpoint = 1 (Figure 2) acts
// as a Boolean; undefined and error pass through; anything else is an
// error.
func toBool(v Value) Value {
	switch v.Type() {
	case BooleanType, UndefinedType, ErrorType:
		return v
	case IntegerType, RealType:
		n, _ := v.NumberVal()
		return Bool(n != 0)
	default:
		return Erroneous("%s used in Boolean context", v.Type())
	}
}

// evalAnd implements the non-strict conjunction of paper §3.1:
// false dominates (false && undefined == false, false && error ==
// false), then error, then undefined.
func evalAnd(ctx evalCtx, le, re Expr) Value {
	l := toBool(le.eval(ctx))
	if l.Type() == BooleanType && !l.IsTrue() {
		return Bool(false) // short-circuit: right side never runs
	}
	r := toBool(re.eval(ctx))
	switch {
	case r.Type() == BooleanType && !r.IsTrue():
		return Bool(false)
	case l.IsError():
		return l
	case r.IsError():
		return r
	case l.IsUndefined() || r.IsUndefined():
		return Undef()
	default:
		return Bool(true)
	}
}

// evalOr implements the non-strict disjunction: true dominates
// ("Mips >= 10 || Kflops >= 1000 evaluates to true whenever either
// attribute exists and satisfies the bound", paper §3.1).
func evalOr(ctx evalCtx, le, re Expr) Value {
	l := toBool(le.eval(ctx))
	if l.IsTrue() {
		return Bool(true) // short-circuit
	}
	r := toBool(re.eval(ctx))
	switch {
	case r.IsTrue():
		return Bool(true)
	case l.IsError():
		return l
	case r.IsError():
		return r
	case l.IsUndefined() || r.IsUndefined():
		return Undef()
	case l.Type() != BooleanType:
		return l // error from coercion
	case r.Type() != BooleanType:
		return r
	default:
		return Bool(false)
	}
}

// numOperand classifies an arithmetic operand: booleans coerce to
// integers, integers stay integers, reals stay reals.
func numOperand(v Value) (f float64, isInt bool, out Value, ok bool) {
	switch v.Type() {
	case UndefinedType, ErrorType:
		return 0, false, v, false
	case BooleanType:
		if v.IsTrue() {
			return 1, true, Value{}, true
		}
		return 0, true, Value{}, true
	case IntegerType:
		return v.num, true, Value{}, true
	case RealType:
		return v.num, false, Value{}, true
	default:
		return 0, false, Erroneous("%s used in arithmetic", v.Type()), false
	}
}

// evalArith implements + - * / % with strict undefined/error
// propagation (error dominates undefined) and integer/real promotion.
// Integer division truncates; division and modulus by zero are errors.
func evalArith(op Op, l, r Value) Value {
	lf, li, lv, lok := numOperand(l)
	rf, ri, rv, rok := numOperand(r)
	if !lok || !rok {
		// Error dominates undefined regardless of operand order.
		if lv.IsError() {
			return lv
		}
		if rv.IsError() {
			return rv
		}
		if lv.IsUndefined() || rv.IsUndefined() {
			return Undef()
		}
		if !lok {
			return lv
		}
		return rv
	}
	bothInt := li && ri
	switch op {
	case OpAdd:
		if bothInt {
			return Int(int64(lf) + int64(rf))
		}
		return Real(lf + rf)
	case OpSub:
		if bothInt {
			return Int(int64(lf) - int64(rf))
		}
		return Real(lf - rf)
	case OpMul:
		if bothInt {
			return Int(int64(lf) * int64(rf))
		}
		return Real(lf * rf)
	case OpDiv:
		if bothInt {
			if int64(rf) == 0 {
				return Erroneous("integer division by zero")
			}
			return Int(int64(lf) / int64(rf))
		}
		if rf == 0 {
			return Erroneous("division by zero")
		}
		return Real(lf / rf)
	case OpMod:
		if bothInt {
			if int64(rf) == 0 {
				return Erroneous("modulus by zero")
			}
			return Int(int64(lf) % int64(rf))
		}
		if rf == 0 {
			return Erroneous("modulus by zero")
		}
		return Real(math.Mod(lf, rf))
	}
	return Erroneous("bad arithmetic operator")
}

// evalCompare implements the strict comparison operators of §3.1:
// "comparison operators are strict, so other.Memory == 32 evaluates to
// undefined if the target classad has no Memory attribute". String
// comparison is case-insensitive (the is operator provides the
// case-sensitive form). Comparing incompatible types is an error.
func evalCompare(op Op, l, r Value) Value {
	if l.IsError() {
		return l
	}
	if r.IsError() {
		return r
	}
	if l.IsUndefined() || r.IsUndefined() {
		return Undef()
	}
	// String-string comparison.
	if ls, ok := l.StringVal(); ok {
		rs, ok := r.StringVal()
		if !ok {
			return Erroneous("comparison of string with %s", r.Type())
		}
		return cmpResult(op, foldCompare(ls, rs))
	}
	if _, ok := r.StringVal(); ok {
		return Erroneous("comparison of %s with string", l.Type())
	}
	// Boolean equality (relational order on booleans is an error).
	if l.Type() == BooleanType && r.Type() == BooleanType {
		switch op {
		case OpEq:
			return Bool(l.IsTrue() == r.IsTrue())
		case OpNe:
			return Bool(l.IsTrue() != r.IsTrue())
		default:
			return Erroneous("relational comparison of booleans")
		}
	}
	// Numeric comparison, with boolean-to-integer coercion on the
	// mixed side for symmetry with arithmetic.
	lf, _, lv, lok := numOperand(l)
	rf, _, rv, rok := numOperand(r)
	if !lok {
		return lv
	}
	if !rok {
		return rv
	}
	switch {
	case lf < rf:
		return cmpResult(op, -1)
	case lf > rf:
		return cmpResult(op, 1)
	default:
		return cmpResult(op, 0)
	}
}

// foldCompare orders two strings as strings.Compare orders their
// lower-cased forms, without building either: ASCII is folded byte by
// byte, and the first non-ASCII byte hands both strings to ToLower.
func foldCompare(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		ca, cb := a[i], b[i]
		if ca|cb >= 0x80 {
			return strings.Compare(strings.ToLower(a), strings.ToLower(b))
		}
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
	// One string is a prefix of the other; lower-casing works rune by
	// rune and never empties a tail, so length decides.
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func cmpResult(op Op, c int) Value {
	switch op {
	case OpLt:
		return Bool(c < 0)
	case OpLe:
		return Bool(c <= 0)
	case OpGt:
		return Bool(c > 0)
	case OpGe:
		return Bool(c >= 0)
	case OpEq:
		return Bool(c == 0)
	case OpNe:
		return Bool(c != 0)
	}
	return Erroneous("bad comparison operator")
}
