package classad

// The offer index, its lint, the pool analyzer and the static
// analyzers all read the same thing out of a Constraint: which
// top-level conjuncts, once partially evaluated against the ad that
// carries them, compare one attribute of the *other* ad with a
// literal — the conjuncts an index can answer (a database would call
// them sargable). Conjuncts is the one definition of that shape; each
// consumer keeps only its own policy, as a filter over the list.

// Conjunct is one top-level conjunct of an ad's constraint.
type Conjunct struct {
	// Expr is the conjunct as written.
	Expr Expr
	// Residual is Expr partially evaluated against the ad (PartialEval):
	// other.Memory >= self.Memory becomes other.Memory >= 31.
	Residual Expr
	// Bound is set when Residual compares a peer attribute with a
	// literal, nil otherwise.
	Bound *Bound
}

// Bound is a residual of the shape `ref OP literal`, in either operand
// order, where ref is the peer's attribute: other-scoped, or
// unqualified and not defined by the ad itself. An unqualified name
// resolves in its own ad first, so one the ad defines — even by an
// expression that survives partial evaluation, such as
// Memory = other.Disk — says nothing about the peer.
type Bound struct {
	Name string // the attribute as written
	Key  string // Fold(Name)
	Op   Op     // with the attribute on the left: <, <=, >, >=, == or !=
	Lit  Value
}

// mirrored maps each comparison operator to its form for swapped
// operands (3 < x ≡ x > 3); it is also the set of operators a Bound
// can carry.
var mirrored = map[Op]Op{
	OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe, OpEq: OpEq, OpNe: OpNe,
}

// Conjuncts splits self's constraint (either spelling) into its
// top-level conjuncts, in source order, each with its residual against
// self and, when the residual has the shape, its Bound. An ad without
// a constraint has none.
func Conjuncts(self *Ad, env *Env) []Conjunct {
	ce, ok := constraintExpr(self)
	if !ok {
		return nil
	}
	return appendConjuncts(nil, ce, self, env)
}

// appendConjuncts flattens && as SplitConjuncts does, appending each
// conjunct to out as it goes instead of building slices to join: the
// offer index calls Conjuncts for every request it prunes for.
func appendConjuncts(out []Conjunct, e Expr, self *Ad, env *Env) []Conjunct {
	if b, ok := e.(binaryExpr); ok && b.op == OpAnd {
		return appendConjuncts(appendConjuncts(out, b.l, self, env), b.r, self, env)
	}
	res := PartialEval(e, self, env)
	return append(out, Conjunct{Expr: e, Residual: res, Bound: boundOf(res, self)})
}

// boundOf reads a residual conjunct as a Bound, or returns nil.
func boundOf(res Expr, self *Ad) *Bound {
	b, ok := res.(binaryExpr)
	if !ok {
		return nil
	}
	if _, ok := mirrored[b.op]; !ok {
		return nil
	}
	op := b.op
	ref, isRef := b.l.(attrRef)
	lit, isLit := b.r.(litExpr)
	if !isRef || !isLit {
		op = mirrored[op]
		ref, isRef = b.r.(attrRef)
		lit, isLit = b.l.(litExpr)
	}
	if !isRef || !isLit {
		return nil
	}
	key := Fold(ref.name)
	switch ref.scope {
	case ScopeOther:
	case ScopeNone:
		if _, defined := self.LookupKey(key); defined {
			return nil
		}
	default:
		return nil // self.X is the ad's own attribute
	}
	return &Bound{Name: ref.name, Key: key, Op: op, Lit: lit.v}
}
