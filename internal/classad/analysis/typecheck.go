package analysis

import (
	"strings"

	"repro/internal/classad"
)

// The type pass runs abstract interpretation over the classad's
// three-valued logic: every expression is assigned the *set* of value
// types it can evaluate to. A comparison whose operand sets rule out a
// boolean result — string against number, say — can only ever yield
// undefined or error, which in a Constraint means "never true": the
// exact silent failure mode this pass exists to flag.

// typeSet is a bitmask over classad.ValueType, laid out as
// classad.TypeSet is, so a builtin's declared Results convert to it.
type typeSet classad.TypeSet

func bit(t classad.ValueType) typeSet { return 1 << uint(t) }

var (
	tUndef = bit(classad.UndefinedType)
	tErr   = bit(classad.ErrorType)
	tBool  = bit(classad.BooleanType)
	tInt   = bit(classad.IntegerType)
	tReal  = bit(classad.RealType)
	tStr   = bit(classad.StringType)
	tList  = bit(classad.ListType)
	tAd    = bit(classad.AdType)

	tNumish = tInt | tReal | tBool // accepted by arithmetic (bool coerces)
	tAny    = tUndef | tErr | tBool | tInt | tReal | tStr | tList | tAd
)

// proper strips the undefined/error bits, leaving the "real" values.
func (s typeSet) proper() typeSet { return s &^ (tUndef | tErr) }

// describe names the proper types in a set for diagnostics.
func (s typeSet) describe() string {
	var names []string
	for _, t := range []classad.ValueType{
		classad.BooleanType, classad.IntegerType, classad.RealType,
		classad.StringType, classad.ListType, classad.AdType,
	} {
		if s&bit(t) != 0 {
			names = append(names, t.String())
		}
	}
	if len(names) == 0 {
		if s&tErr != 0 && s&tUndef == 0 {
			return "error"
		}
		if s&tUndef != 0 && s&tErr == 0 {
			return "undefined"
		}
		return "undefined/error"
	}
	return strings.Join(names, " or ")
}

// checkTypes runs the type pass over every attribute of the ad.
func (a *analyzer) checkTypes() {
	for _, name := range a.ad.Names() {
		e, _ := a.ad.Lookup(name)
		a.typeWalk(name, e, map[string]bool{})
	}
}

// typeWalk descends one attribute's expression, reporting findings
// against attr. active guards recursive attribute references.
func (a *analyzer) typeWalk(attr string, e classad.Expr, active map[string]bool) {
	info := classad.Inspect(e)
	switch info.Kind {
	case classad.KindBinary:
		l := a.infer(info.Args[0], active)
		r := a.infer(info.Args[1], active)
		switch info.Op {
		case classad.OpLt, classad.OpLe, classad.OpGt, classad.OpGe,
			classad.OpEq, classad.OpNe:
			if res := compareResult(info.Op, l, r); res&tBool == 0 {
				a.report(CodeTypeConflict, Error, attr, e,
					"comparison %q can only evaluate to %s: left operand is %s, right operand is %s",
					e.String(), res.describe(), l.describe(), r.describe())
			}
		case classad.OpAdd, classad.OpSub, classad.OpMul, classad.OpDiv, classad.OpMod:
			if res := arithResult(l, r); res.proper() == 0 {
				a.report(CodeTypeConflict, Error, attr, e,
					"arithmetic %q can only evaluate to %s: left operand is %s, right operand is %s",
					e.String(), res.describe(), l.describe(), r.describe())
			}
		}
	case classad.KindCall:
		a.checkCall(attr, e, info)
	case classad.KindAd:
		// A nested ad literal opens a fresh scope; its attributes are
		// not checked against this ad's bindings.
		return
	}
	for _, c := range info.Args {
		a.typeWalk(attr, c, active)
	}
}

// checkCall validates the callee name and arity (CAD002/CAD003).
func (a *analyzer) checkCall(attr string, e classad.Expr, info classad.ExprInfo) {
	b, ok := classad.LookupBuiltin(info.Name)
	if !ok {
		msg := "call of unknown builtin " + quoted(info.Name)
		if sug := suggest(info.Name, classad.BuiltinNames()); sug != "" {
			msg += " (did you mean " + quoted(sug) + "?)"
		}
		a.report(CodeUnknownBuiltin, Error, attr, e, "%s", msg)
		return
	}
	n := len(info.Args)
	switch {
	case n < b.Min:
		a.report(CodeBadArity, Error, attr, e,
			"%s expects at least %d argument(s), got %d", info.Name, b.Min, n)
	case b.Max >= 0 && n > b.Max:
		a.report(CodeBadArity, Error, attr, e,
			"%s expects at most %d argument(s), got %d", info.Name, b.Max, n)
	}
}

func quoted(s string) string { return `"` + s + `"` }

// infer computes the set of types e can evaluate to in the context of
// the analyzed ad. Anything it cannot reason about precisely widens to
// tAny, so the pass only flags what is provably broken.
func (a *analyzer) infer(e classad.Expr, active map[string]bool) typeSet {
	info := classad.Inspect(e)
	switch info.Kind {
	case classad.KindLiteral:
		return bit(info.Value.Type())
	case classad.KindAttrRef:
		switch info.Scope {
		case classad.ScopeOther:
			return tAny // depends on the matched ad
		case classad.ScopeSelf:
			if def, ok := a.ad.Lookup(info.Name); ok {
				return a.inferAttr(info.Name, def, active)
			}
			// self never falls back to the other ad: a missing
			// self-scoped attribute is always undefined.
			return tUndef
		default:
			if def, ok := a.ad.Lookup(info.Name); ok {
				return a.inferAttr(info.Name, def, active)
			}
			return tAny // may bind in the other ad at match time
		}
	case classad.KindUnary:
		arg := a.infer(info.Args[0], active)
		switch info.Op {
		case classad.OpNot:
			var out typeSet
			out |= arg & (tUndef | tErr)
			if arg&(tBool|tInt|tReal) != 0 {
				out |= tBool
			}
			if arg.proper()&^(tBool|tInt|tReal) != 0 {
				out |= tErr
			}
			return out
		case classad.OpNeg, classad.OpPlus:
			var out typeSet
			out |= arg & (tUndef | tErr)
			out |= arg & (tInt | tReal)
			if arg&tBool != 0 {
				out |= tInt
			}
			if arg.proper()&^tNumish != 0 {
				out |= tErr
			}
			return out
		}
		return tAny
	case classad.KindBinary:
		l := a.infer(info.Args[0], active)
		r := a.infer(info.Args[1], active)
		switch info.Op {
		case classad.OpAnd, classad.OpOr:
			// Non-strict: false && x is false regardless of x, so the
			// result is at most {bool, undefined, error}.
			return tBool | ((l | r) & (tUndef | tErr))
		case classad.OpIs, classad.OpIsnt:
			return tBool // meta-equality is total
		case classad.OpLt, classad.OpLe, classad.OpGt, classad.OpGe,
			classad.OpEq, classad.OpNe:
			return compareResult(info.Op, l, r)
		case classad.OpAdd, classad.OpSub, classad.OpMul, classad.OpDiv, classad.OpMod:
			return arithResult(l, r)
		}
		return tAny
	case classad.KindCond:
		cond := a.infer(info.Args[0], active)
		out := a.infer(info.Args[1], active) | a.infer(info.Args[2], active)
		out |= cond & (tUndef | tErr)
		return out
	case classad.KindCall:
		if b, ok := classad.LookupBuiltin(info.Name); ok {
			return typeSet(b.Results)
		}
		return tAny
	case classad.KindList:
		return tList
	case classad.KindAd:
		return tAd
	default: // select, index: depends on runtime structure
		return tAny
	}
}

// inferAttr infers a referenced attribute's definition, guarding
// against reference cycles (which evaluate to error at runtime, but
// widening keeps the pass quiet about them).
func (a *analyzer) inferAttr(name string, def classad.Expr, active map[string]bool) typeSet {
	key := classad.Fold(name)
	if active[key] {
		return tAny
	}
	active[key] = true
	out := a.infer(def, active)
	delete(active, key)
	return out
}

// compareResult mirrors evalCompare over type sets: strings compare
// only with strings, booleans admit only ==/!= among themselves but
// coerce to integers against numbers, lists and ads never compare.
func compareResult(op classad.Op, l, r typeSet) typeSet {
	var out typeSet
	if (l|r)&tErr != 0 {
		out |= tErr
	}
	if (l|r)&tUndef != 0 {
		out |= tUndef
	}
	lp, rp := l.proper(), r.proper()
	if lp == 0 || rp == 0 {
		return out
	}
	if lp&tStr != 0 {
		if rp&tStr != 0 {
			out |= tBool
		}
		if rp&^tStr != 0 {
			out |= tErr
		}
	}
	if rp&tStr != 0 && lp&^tStr != 0 {
		out |= tErr
	}
	if lp&tBool != 0 && rp&tBool != 0 {
		if op == classad.OpEq || op == classad.OpNe {
			out |= tBool
		} else {
			out |= tErr
		}
	}
	if (lp&(tInt|tReal) != 0 && rp&tNumish != 0) ||
		(lp&tNumish != 0 && rp&(tInt|tReal) != 0) {
		out |= tBool
	}
	if lp&(tList|tAd) != 0 || rp&(tList|tAd) != 0 {
		out |= tErr
	}
	return out
}

// arithResult mirrors evalArith over type sets: numbers (and booleans,
// coerced) combine; anything else is an error; undefined propagates.
func arithResult(l, r typeSet) typeSet {
	var out typeSet
	if (l|r)&tErr != 0 {
		out |= tErr
	}
	if (l|r)&tUndef != 0 {
		out |= tUndef
	}
	lp, rp := l.proper(), r.proper()
	if lp == 0 || rp == 0 {
		return out
	}
	if lp&tNumish != 0 && rp&tNumish != 0 {
		if lp&tReal != 0 || rp&tReal != 0 {
			out |= tReal
		}
		if lp&(tInt|tBool) != 0 && rp&(tInt|tBool) != 0 {
			out |= tInt
		}
		out |= tErr // division by zero, overflow
	}
	if lp&^tNumish != 0 || rp&^tNumish != 0 {
		out |= tErr
	}
	return out
}
