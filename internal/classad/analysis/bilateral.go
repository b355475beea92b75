package analysis

// Bilateral analysis: the cross-ad half of the static analyzer.
//
// Every pass in this package so far reasons about ONE ad; the question
// at the heart of the paper's §3.2 Constraint/Constraint match is
// bilateral — can a *pair* of ads ever satisfy each other? For a
// concrete pair, the evaluator's three-valued semantics make almost
// everything decidable: every attribute reference resolves (to a
// definition or to a deterministic undefined), so the only genuinely
// open terms are the impure builtins (time(), random(), ...) whose
// value changes between negotiation cycles. The analyzer therefore
// substitutes the self/other bindings both ways, partially evaluates
// the conjunction of both Constraints, and issues a verdict only for
// conjuncts whose value is provably fixed:
//
//   - CAD301: a conjunct of one side's constraint evaluates to a
//     non-true value against the peer, whatever the time or random
//     stream — the pair can never match (mutual-constraint
//     contradiction when both sides carry one);
//   - CAD302: a comparison tests a peer attribute whose inferred type
//     set makes a boolean result impossible (e.g. the request compares
//     other.Memory >= 512 against an ad advertising Memory = "64") —
//     a cross-ad type clash that can only yield undefined/error;
//   - CAD303: a Rank expression that is provably undefined or error
//     against the peer, so ranking silently degenerates to 0.
//
// The same machinery scales from one pair to a corpus (files or a live
// collector): schema.go infers the pool's attribute vocabulary with
// types and value ranges, and AuditCorpus runs the pair analysis over
// every request/offer combination to find "dead ads" no counterpart
// can match (CAD305) and attributes advertised with conflicting types
// (CAD304) — the mis-typed/mis-spelled attributes that silently starve
// jobs in production pools.
//
// Soundness: every CAD301/CAD302 verdict implies
// classad.Match(left, right).Matched == false under every environment.
// A randomized differential test pins this against the evaluator.

import (
	"fmt"

	"repro/internal/classad"
)

// Bilateral diagnostic codes. The CAD30x range is cross-ad analysis;
// CAD4xx (index-friendliness, emitted by matchmaker.LintIndex) is
// declared here so the whole diagnostic vocabulary lives in one
// package.
const (
	CodePairContradiction  = "CAD301" // conjunct provably never true against the peer
	CodeCrossTypeClash     = "CAD302" // comparison with peer attribute cannot yield a boolean
	CodePairRankUndefined  = "CAD303" // Rank provably undefined/error against the peer
	CodeSchemaTypeConflict = "CAD304" // attribute advertised with conflicting types across the corpus
	CodeDeadAd             = "CAD305" // no counterpart in the corpus can match the ad
	CodeUnindexable        = "CAD401" // constraint has no indexable conjunct: full scans
	CodeIndexUnsat         = "CAD402" // constraint compares against literal undefined/error
)

// maxPurityDepth bounds the purity walk the same way maxEvalDepth
// bounds evaluation; past it the checker conservatively answers
// "impure" and no verdict is issued.
const maxPurityDepth = 512

// pairKey identifies an (ad, attribute) pair on the purity walk's
// path, for cycle detection.
type pairKey struct {
	ad   *classad.Ad
	name string
}

// purityChecker decides whether an expression's value against a
// concrete pair of ads is fixed: the same under every environment. A
// pure expression contains no reachable impure builtin — every
// attribute reference resolves to a definition in one of the two ads
// (or to a deterministic undefined), and reference cycles evaluate to
// a deterministic error.
type purityChecker struct {
	depth    int
	visiting map[pairKey]bool
}

// pure walks e as it would evaluate with self as the lexical scope and
// other as the match candidate, mirroring the evaluator's resolution
// rules (self.X never consults the peer; unqualified names try self
// then other; scopes flip when a definition in the peer is entered).
func (pc *purityChecker) pure(e classad.Expr, self, other *classad.Ad) bool {
	if pc.depth++; pc.depth > maxPurityDepth {
		pc.depth--
		return false
	}
	defer func() { pc.depth-- }()
	info := classad.Inspect(e)
	switch info.Kind {
	case classad.KindCall:
		if b, ok := classad.LookupBuiltin(info.Name); ok && b.Impure {
			return false
		}
	case classad.KindAttrRef:
		switch info.Scope {
		case classad.ScopeSelf:
			return pc.pureDef(self, other, info.Name)
		case classad.ScopeOther:
			return pc.pureDef(other, self, info.Name)
		default:
			if _, ok := self.Lookup(info.Name); ok {
				return pc.pureDef(self, other, info.Name)
			}
			return pc.pureDef(other, self, info.Name)
		}
	case classad.KindAd:
		// A nested ad literal is a value as-is; its attributes evaluate
		// on selection with the nested ad as the only lexical scope and
		// the same match candidate.
		for _, n := range info.Ad.Names() {
			def, _ := info.Ad.Lookup(n)
			if !pc.pure(def, info.Ad, other) {
				return false
			}
		}
		return true
	}
	for _, c := range info.Args {
		if !pc.pure(c, self, other) {
			return false
		}
	}
	return true
}

// pureDef checks the definition of name in ad, evaluated with ad as
// self and peer as the candidate. A missing definition is pure (it
// evaluates to a deterministic undefined), and a definition already on
// the walk's path is a reference cycle, which the evaluator detects
// and turns into a deterministic error.
func (pc *purityChecker) pureDef(ad, peer *classad.Ad, name string) bool {
	def, ok := ad.Lookup(name)
	if !ok {
		return true
	}
	key := pairKey{ad, classad.Fold(name)}
	if pc.visiting == nil {
		pc.visiting = make(map[pairKey]bool)
	}
	if pc.visiting[key] {
		return true
	}
	pc.visiting[key] = true
	pure := pc.pure(def, ad, peer)
	delete(pc.visiting, key)
	return pure
}

// neverTruthy reports whether a conjunct with value v rules the whole
// constraint out: a conjunction is true only when every conjunct
// passes the boolean coercion (booleans as themselves, non-zero
// numbers as true); undefined, error, false, zero, and every
// non-coercible type can never contribute a match.
func neverTruthy(v classad.Value) bool {
	truth, coerces := truthiness(v)
	return !coerces || !truth
}

// ProvablyNeverTrue reports whether e — evaluated with self bound to
// self and other bound to other, as a Constraint conjunct is during
// matching — is provably never true: after partial evaluation against
// self (an exact rewriting, so domination laws like `x && false` fold
// even around impure terms) its value is fixed (no reachable impure
// builtin) and fails the boolean coercion. matchmaker.Analyze uses it
// for per-clause static verdicts against each offer.
func ProvablyNeverTrue(e classad.Expr, self, other *classad.Ad, env *classad.Env) bool {
	if e == nil {
		return false
	}
	if self == nil {
		self = classad.NewAd()
	}
	residual := classad.PartialEval(e, self, env)
	pc := &purityChecker{}
	if !pc.pure(residual, self, other) {
		return false
	}
	return neverTruthy(classad.EvalExprAgainst(residual, self, other, env))
}

// PairReport is the result of a bilateral analysis of two ads.
type PairReport struct {
	// LeftDiags are findings about the left ad's Constraint/Rank
	// evaluated against the right ad; RightDiags the reverse.
	// Positions in each slice refer to the ad the findings concern.
	LeftDiags, RightDiags []Diagnostic
	// NeverMatch is true when an error-severity finding proves the two
	// ads can never match, under any environment.
	NeverMatch bool
}

// Diags returns both sides' findings, left first.
func (r *PairReport) Diags() []Diagnostic {
	return append(append([]Diagnostic(nil), r.LeftDiags...), r.RightDiags...)
}

// AnalyzeMatch runs the bilateral analysis over a pair of ads: each
// side's constraint is checked conjunct by conjunct against the other
// (CAD301/CAD302), and each side's Rank is checked for provable
// undefinedness against its peer (CAD303). A nil ad yields an empty
// report.
func AnalyzeMatch(left, right *classad.Ad, opts *Options) *PairReport {
	rep := &PairReport{}
	if left == nil || right == nil {
		return rep
	}
	if opts == nil {
		opts = &Options{}
	}
	env := opts.Env
	if env == nil {
		env = classad.DefaultEnv()
	}
	rep.LeftDiags = checkAgainst(left, right, env)
	rep.RightDiags = checkAgainst(right, left, env)
	for _, d := range rep.Diags() {
		if d.Severity >= Error {
			rep.NeverMatch = true
		}
	}
	return rep
}

// checkAgainst analyzes self's constraint and Rank against a concrete
// peer, returning findings positioned in self.
func checkAgainst(self, peer *classad.Ad, env *classad.Env) []Diagnostic {
	var diags []Diagnostic
	peerName := displayName(peer)
	report := func(code string, sev Severity, attr string, expr classad.Expr, format string, args ...any) {
		d := Diagnostic{Code: code, Severity: sev, Attr: attr,
			Message: fmt.Sprintf(format, args...)}
		if expr != nil {
			d.Expr = expr.String()
		}
		if p, ok := self.AttrPos(attr); ok {
			d.Line, d.Col = p.Line, p.Col
		}
		diags = append(diags, d)
	}

	cattr := classad.AttrRequirements
	if _, ok := self.Lookup(classad.AttrConstraint); ok {
		cattr = classad.AttrConstraint
	}
	for _, c := range classad.Conjuncts(self, env) {
		if resTS, peerTS, clash := crossTypeClash(c.Bound, peer, env); clash {
			report(CodeCrossTypeClash, Error, cattr, c.Expr,
				"conjunct %q can never be true: it compares %s of %s (which is %s) with %s — the comparison can only yield %s, so the pair can never match",
				c.Expr.String(), c.Bound.Name, peerName, peerTS.describe(), c.Bound.Lit.String(), resTS.describe())
			continue
		}
		pc := &purityChecker{}
		if !pc.pure(c.Residual, self, peer) {
			continue
		}
		if v := classad.EvalExprAgainst(c.Residual, self, peer, env); neverTruthy(v) {
			report(CodePairContradiction, Error, cattr, c.Expr,
				"conjunct %q evaluates to %s against %s, whatever the environment: the pair can never match",
				c.Expr.String(), describeValue(v), peerName)
		}
	}
	if re, ok := self.Lookup(classad.AttrRank); ok {
		pc := &purityChecker{}
		if pc.pure(re, self, peer) {
			if v := classad.EvalExprAgainst(re, self, peer, env); v.IsUndefined() || v.IsError() {
				report(CodePairRankUndefined, Warning, classad.AttrRank, re,
					"Rank evaluates to %s against %s: this pair is ranked 0, so candidate ordering falls back to arbitrary tie-breaks",
					describeValue(v), peerName)
			}
		}
	}
	return diags
}

// crossTypeClash decides, for a conjunct's bound on a peer attribute,
// from the peer definition's inferred type set whether the comparison
// can ever produce a boolean. This proof does not need purity: type
// inference already accounts for impure builtins by their result
// types.
func crossTypeClash(b *classad.Bound, peer *classad.Ad, env *classad.Env) (res, peerTS typeSet, clash bool) {
	if b == nil {
		return 0, 0, false
	}
	def, ok := peer.LookupKey(b.Key)
	if !ok {
		// Missing peer attribute: a deterministic undefined. CAD301's
		// pure-evaluation path reports it with a clearer message.
		return 0, 0, false
	}
	pa := &analyzer{ad: peer, env: env, vocab: buildVocab(nil)}
	peerTS = pa.inferAttr(b.Name, def, map[string]bool{})
	res = compareResult(b.Op, peerTS, bit(b.Lit.Type()))
	return res, peerTS, res&tBool == 0
}

// describeValue renders a value for a diagnostic message: the bare
// word for undefined/error, the unparsed literal otherwise.
func describeValue(v classad.Value) string {
	switch {
	case v.IsUndefined():
		return "undefined"
	case v.IsError():
		return "error"
	default:
		return v.String()
	}
}

// displayName names an ad for diagnostics: its Name attribute when it
// evaluates to a non-empty string, "the peer ad" otherwise.
func displayName(ad *classad.Ad) string {
	if s, ok := ad.Eval(classad.AttrName).StringVal(); ok && s != "" {
		return fmt.Sprintf("%q", s)
	}
	return "the peer ad"
}

// serviceAdTypes are infrastructure self-ads — the negotiator's own
// ad, a collector's, a scheduler's. They live in the collector for
// discovery and monitoring, not for matchmaking, so pairing a machine
// against one (and declaring the machine dead when the pool is
// otherwise empty) would be noise, not analysis.
var serviceAdTypes = map[string]bool{
	"negotiator": true,
	"collector":  true,
	"scheduler":  true,
	"daemon":     true,
}

// isCounterpart reports whether two corpus ads are candidates for
// matching against each other: neither is a service self-ad, and they
// advertise different Types (or at least one of them does not say).
// The matchmaking protocol pairs requests with offers, never two ads
// of the same kind.
func isCounterpart(a, b *classad.Ad) bool {
	ta, aok := a.Eval(classad.AttrType).StringVal()
	tb, bok := b.Eval(classad.AttrType).StringVal()
	if aok && serviceAdTypes[classad.Fold(ta)] {
		return false
	}
	if bok && serviceAdTypes[classad.Fold(tb)] {
		return false
	}
	if aok && bok {
		return !equalFoldStr(ta, tb)
	}
	return true
}

// CorpusAd pairs an ad with the origin it was read from (a file path
// or a collector's ad name), for attribution in audit findings.
type CorpusAd struct {
	Origin string
	Ad     *classad.Ad
}

// AuditFinding is one corpus-level finding, attributed to an ad.
type AuditFinding struct {
	Origin string
	Diag   Diagnostic
}

func (f AuditFinding) String() string {
	return fmt.Sprintf("%s: %s", f.Origin, f.Diag)
}

// AuditCorpus treats the ads as one pool and reports what no single-ad
// pass can see: attributes advertised with conflicting types across
// the corpus (CAD304), and dead ads — ads the bilateral analysis
// proves can never match ANY counterpart currently in the corpus
// (CAD305). Dead-ad messages carry schema hints ("pool's Memory
// ranges 32..256") when a constraint bound falls outside what the
// corpus advertises. The returned findings are grouped by origin in
// corpus order.
func AuditCorpus(corpus []CorpusAd, opts *Options) []AuditFinding {
	if opts == nil {
		opts = &Options{}
	}
	schema := InferSchema(corpus)
	var out []AuditFinding
	for _, f := range schema.TypeConflicts() {
		out = append(out, f)
	}

	// Pairwise verdicts, computed once per unordered pair.
	n := len(corpus)
	never := make([][]bool, n)
	for i := range never {
		never[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !isCounterpart(corpus[i].Ad, corpus[j].Ad) {
				continue
			}
			rep := AnalyzeMatch(corpus[i].Ad, corpus[j].Ad, opts)
			never[i][j] = rep.NeverMatch
			never[j][i] = rep.NeverMatch
		}
	}
	for i := 0; i < n; i++ {
		counterparts, dead := 0, 0
		for j := 0; j < n; j++ {
			if j == i || !isCounterpart(corpus[i].Ad, corpus[j].Ad) {
				continue
			}
			counterparts++
			if never[i][j] {
				dead++
			}
		}
		if counterparts == 0 || dead < counterparts {
			continue
		}
		msg := fmt.Sprintf("dead ad: none of the %d counterpart ad(s) in the corpus can match it", counterparts)
		if hints := schema.boundHints(corpus[i].Ad, opts.Env); hints != "" {
			msg += " (" + hints + ")"
		}
		d := Diagnostic{Code: CodeDeadAd, Severity: Warning, Message: msg}
		if ce, ok := classad.ConstraintOf(corpus[i].Ad); ok {
			d.Expr = ce.String()
		}
		if _, ok := corpus[i].Ad.Lookup(classad.AttrConstraint); ok {
			d.Attr = classad.AttrConstraint
		} else if _, ok := corpus[i].Ad.Lookup(classad.AttrRequirements); ok {
			d.Attr = classad.AttrRequirements
		}
		if p, ok := corpus[i].Ad.AttrPos(d.Attr); ok {
			d.Line, d.Col = p.Line, p.Col
		}
		out = append(out, AuditFinding{Origin: corpus[i].Origin, Diag: d})
	}
	return out
}
