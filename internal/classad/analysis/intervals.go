package analysis

import (
	"math"

	"repro/internal/classad"
)

// The constraint pass partially evaluates each top-level conjunct of
// the ad's Constraint/Requirements against the ad itself — exactly the
// folding a matchmaker could do before ever seeing a candidate — and
// then reasons about what is left:
//
//   - a conjunct that folds to a constant is either a tautology
//     (CAD202: it constrains nothing) or, if false, undefined or
//     error, can never be true, so the whole conjunction is
//     unsatisfiable (CAD201; §3.1: a constraint matches only when it
//     evaluates to true);
//   - residual numeric bounds on the same attribute of the matched ad
//     are intersected as intervals; an empty intersection (Memory > 64
//     && Memory < 32) is unsatisfiable no matter what the pool
//     advertises (CAD201), as are two equality tests demanding
//     different strings;
//   - a Rank that folds to a constant cannot order candidates, so
//     matching degenerates to arbitrary tie-breaks (CAD203).

// interval is a numeric range with open/closed ends.
type interval struct {
	lo, hi          float64
	loStrict        bool
	hiStrict        bool
	loSrc, hiSrc    string // conjunct sources that set each bound
	reported        bool
	eqStr, eqStrSrc string // string equality requirement, if any
	hasEqStr        bool
}

func newInterval() *interval {
	return &interval{lo: math.Inf(-1), hi: math.Inf(1)}
}

func (iv *interval) empty() bool {
	if iv.lo > iv.hi {
		return true
	}
	return iv.lo == iv.hi && (iv.loStrict || iv.hiStrict)
}

// checkConstraint runs the satisfiability pass.
func (a *analyzer) checkConstraint() {
	a.checkConjuncts(a.constraintAttr())
	if re, ok := a.ad.Lookup(classad.AttrRank); ok {
		res := classad.PartialEval(re, a.ad, a.env)
		if info := classad.Inspect(res); info.Kind == classad.KindLiteral {
			a.report(CodeConstantRank, Warning, classad.AttrRank, re,
				"Rank is the constant %s: it cannot distinguish one candidate from another, so matching falls back to arbitrary tie-breaks",
				res.String())
		}
	}
}

// constraintAttr returns the spelling under which the ad defines its
// constraint, for position lookup.
func (a *analyzer) constraintAttr() string {
	if _, ok := a.ad.Lookup(classad.AttrConstraint); ok {
		return classad.AttrConstraint
	}
	return classad.AttrRequirements
}

func (a *analyzer) checkConjuncts(attr string) {
	intervals := map[string]*interval{}
	for _, c := range classad.Conjuncts(a.ad, a.env) {
		conj := c.Expr
		if info := classad.Inspect(c.Residual); info.Kind == classad.KindLiteral {
			a.reportConstant(attr, conj, info.Value)
			continue
		}
		b := c.Bound
		num, str, ok := rangeBound(b)
		if !ok {
			continue
		}
		iv := intervals[b.Key]
		if iv == nil {
			iv = newInterval()
			intervals[b.Key] = iv
		}
		if iv.reported {
			continue
		}
		src, disp, op := c.Residual.String(), b.Name, b.Op
		if str != "" {
			if iv.hasEqStr && !equalFoldStr(iv.eqStr, str) {
				a.report(CodeUnsatisfiable, Error, attr, conj,
					"conjuncts %q and %q are unsatisfiable together: %s cannot equal both",
					iv.eqStrSrc, src, disp)
				iv.reported = true
				continue
			}
			iv.eqStr, iv.eqStrSrc, iv.hasEqStr = str, src, true
			continue
		}
		prevLo, prevHi := iv.loSrc, iv.hiSrc
		applyBound(iv, op, num, src)
		if iv.empty() {
			other := prevLo
			if iv.hiSrc != src {
				other = iv.hiSrc
			} else if iv.loSrc != src {
				other = iv.loSrc
			}
			if other == "" {
				other = prevHi
			}
			a.report(CodeUnsatisfiable, Error, attr, conj,
				"conjuncts %q and %q are unsatisfiable together: no value of %s can satisfy both",
				other, src, disp)
			iv.reported = true
		}
	}
}

// reportConstant classifies a conjunct that folded to a literal.
func (a *analyzer) reportConstant(attr string, conj classad.Expr, v classad.Value) {
	src := conj.String()
	switch {
	case v.IsUndefined():
		a.report(CodeUnsatisfiable, Error, attr, conj,
			"conjunct %q always evaluates to undefined, which is never true: the constraint can never be satisfied", src)
	case v.IsError():
		a.report(CodeUnsatisfiable, Error, attr, conj,
			"conjunct %q always evaluates to error, which is never true: the constraint can never be satisfied", src)
	default:
		// Constraints pass through a boolean coercion: numbers count
		// as booleans (non-zero is true), anything else is an error.
		truth, coerces := truthiness(v)
		switch {
		case !coerces:
			a.report(CodeUnsatisfiable, Error, attr, conj,
				"conjunct %q always evaluates to %s, which is never true in a boolean context: the constraint can never be satisfied",
				src, v.Type())
		case truth:
			a.report(CodeTautology, Warning, attr, conj,
				"conjunct %q is always true: it does not constrain the match", src)
		default:
			a.report(CodeUnsatisfiable, Error, attr, conj,
				"conjunct %q is always false: the constraint can never be satisfied", src)
		}
	}
}

// truthiness mirrors the evaluator's boolean coercion for constants.
func truthiness(v classad.Value) (truth, coerces bool) {
	switch v.Type() {
	case classad.BooleanType:
		return v.IsTrue(), true
	case classad.IntegerType, classad.RealType:
		n, _ := v.NumberVal()
		return n != 0, true
	default:
		return false, false
	}
}

// rangeBound is the interval pass's policy over a conjunct's bound on
// a peer attribute: an order or equality against a number, or an
// equality with a string (str set). ok is false for anything else.
func rangeBound(b *classad.Bound) (num float64, str string, ok bool) {
	if b == nil || b.Op == classad.OpNe {
		return 0, "", false
	}
	if s, isStr := b.Lit.StringVal(); isStr {
		return 0, s, b.Op == classad.OpEq
	}
	if t := b.Lit.Type(); t != classad.IntegerType && t != classad.RealType {
		return 0, "", false
	}
	n, _ := b.Lit.NumberVal()
	return n, "", true
}

// applyBound tightens iv with "attr op num".
func applyBound(iv *interval, op classad.Op, num float64, src string) {
	switch op {
	case classad.OpGt:
		if num > iv.lo || (num == iv.lo && !iv.loStrict) {
			iv.lo, iv.loStrict, iv.loSrc = num, true, src
		}
	case classad.OpGe:
		if num > iv.lo {
			iv.lo, iv.loStrict, iv.loSrc = num, false, src
		}
	case classad.OpLt:
		if num < iv.hi || (num == iv.hi && !iv.hiStrict) {
			iv.hi, iv.hiStrict, iv.hiSrc = num, true, src
		}
	case classad.OpLe:
		if num < iv.hi {
			iv.hi, iv.hiStrict, iv.hiSrc = num, false, src
		}
	case classad.OpEq:
		if num > iv.lo {
			iv.lo, iv.loStrict, iv.loSrc = num, false, src
		}
		if num < iv.hi {
			iv.hi, iv.hiStrict, iv.hiSrc = num, false, src
		}
	}
}

func equalFoldStr(a, b string) bool { return classad.Fold(a) == classad.Fold(b) }
