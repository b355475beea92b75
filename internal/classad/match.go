package classad

// This file implements the pairwise matching primitive of paper §3.2:
// "a matchmaking algorithm that considers a pair of ads to be
// incompatible unless their Constraint expressions both evaluate to
// true. The Rank attributes are then used to choose among compatible
// matches." The advertising protocol fixes the attribute names; they
// are exported here so every component agrees on them.

// Attribute names given meaning by the advertising protocol (paper §3.2
// and §4).
const (
	AttrConstraint = "Constraint"
	// AttrRequirements is the alternative spelling used by later
	// Condor releases; both are honoured, Constraint winning if both
	// are present.
	AttrRequirements = "Requirements"
	AttrRank         = "Rank"
	AttrType         = "Type"
	AttrName         = "Name"
	AttrOwner        = "Owner"
	AttrContact      = "Contact"
	AttrTicket       = "AuthorizationTicket"
	// AttrTraceID carries a request's causal trace identifier through
	// the collector: minted at submission, it rides in the job ad so
	// the negotiation that matches the ad — possibly many cycles later,
	// possibly under a failed-over negotiator — can stamp it into the
	// MATCH envelopes it sends (obs spans).
	AttrTraceID = "TraceId"
	// AttrTraceSpan is the span ID of the submission that minted the
	// trace, carried alongside AttrTraceID so spans recorded against
	// the stored ad parent correctly.
	AttrTraceSpan = "TraceSpan"
)

// The folded forms of the names the matching primitives look up on
// every evaluation.
const (
	keyConstraint   = "constraint"
	keyRequirements = "requirements"
	keyRank         = "rank"
)

// constraintExpr returns the ad's compatibility expression under
// either accepted spelling. An ad with no constraint accepts
// everything (the expression defaults to true), which is what deployed
// pools do for ads advertising unconditional service.
func constraintExpr(a *Ad) (Expr, bool) {
	if e, ok := a.LookupKey(keyConstraint); ok {
		return e, true
	}
	return a.LookupKey(keyRequirements)
}

// EvalConstraint evaluates a's constraint against other. A missing
// constraint is satisfied; anything but true — including undefined,
// which the matchmaking algorithm "effectively treats as false"
// (paper §3.1) — is not.
func EvalConstraint(a, other *Ad, env *Env) bool {
	e, ok := constraintExpr(a)
	if !ok {
		return true
	}
	ctx := newCtx(a, other, env)
	v := ctx.evalAttr(a, AttrConstraint, keyConstraint, e)
	ctx.done()
	return v.IsTrue()
}

// EvalRank evaluates a's Rank against other, applying the paper's
// rule that non-numeric values count as zero.
func EvalRank(a, other *Ad, env *Env) float64 {
	return a.evalKey(AttrRank, keyRank, other, env).RankVal()
}

// MatchResult reports the outcome of testing a pair of ads.
type MatchResult struct {
	// Matched is true iff both constraints evaluated to true.
	Matched bool
	// LeftOK and RightOK report each side's constraint individually,
	// which the analyzer uses to explain failures.
	LeftOK, RightOK bool
	// LeftRank is the left ad's Rank of the right ad, and vice
	// versa. Ranks are evaluated even for failed matches so tools
	// can display them.
	LeftRank, RightRank float64
}

// Match tests whether left and right are compatible: the symmetric
// two-way match of paper §3.2. Each side's Constraint is evaluated
// with self bound to that side and other bound to the peer.
func Match(left, right *Ad) MatchResult { return MatchEnv(left, right, nil) }

// MatchEnv is Match with an explicit environment.
func MatchEnv(left, right *Ad, env *Env) MatchResult {
	r := MatchResult{
		LeftOK:    EvalConstraint(left, right, env),
		RightOK:   EvalConstraint(right, left, env),
		LeftRank:  EvalRank(left, right, env),
		RightRank: EvalRank(right, left, env),
	}
	r.Matched = r.LeftOK && r.RightOK
	return r
}

// ConstraintOf exposes the ad's constraint expression (either
// spelling) for tools such as the match analyzer.
func ConstraintOf(a *Ad) (Expr, bool) { return constraintExpr(a) }

// EvalExprAgainst evaluates an arbitrary expression with self bound to
// self and other bound to other — the environment a Constraint
// sub-expression sees during matching. The analyzer uses it to test
// individual conjuncts of a constraint against candidate ads.
func EvalExprAgainst(e Expr, self, other *Ad, env *Env) Value {
	if self == nil {
		self = NewAd()
	}
	ctx := newCtx(self, other, env)
	v := e.eval(ctx)
	ctx.done()
	return v
}

// SplitConjuncts flattens a tree of && operators into its top-level
// conjuncts, in source order. Non-conjunction expressions return a
// single-element slice. The match analyzer tests each conjunct
// separately to localize the clause that empties the pool.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(binaryExpr); ok && b.op == OpAnd {
		return append(SplitConjuncts(b.l), SplitConjuncts(b.r)...)
	}
	return []Expr{e}
}

// TraceOf reads the ad's causal trace ID (AttrTraceID, stamped at
// submission); "" for untraced ads.
func TraceOf(a *Ad) string {
	if s, ok := a.Eval(AttrTraceID).StringVal(); ok {
		return s
	}
	return ""
}

// TraceSpanOf reads the span ID spans about this ad should parent to
// (AttrTraceSpan, the submission span).
func TraceSpanOf(a *Ad) string {
	if s, ok := a.Eval(AttrTraceSpan).StringVal(); ok {
		return s
	}
	return ""
}

// MatchesQuery implements the one-way matching used by status and
// browse tools (paper §4: "One-way matching protocols are used to find
// all objects matching a given pattern"): only the query's constraint
// is consulted, with self bound to the query ad and other bound to the
// candidate.
func MatchesQuery(query, candidate *Ad, env *Env) bool {
	return EvalConstraint(query, candidate, env)
}
