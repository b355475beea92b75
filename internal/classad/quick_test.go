package classad

// Property-based tests over randomly generated expressions and ads,
// using testing/quick. The generator produces structurally valid
// expressions (the grammar's domain), so the properties exercise the
// evaluator and unparser, not the parser's error paths.

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// genValue produces a random literal value of bounded depth.
func genValue(r *rand.Rand, depth int) Value {
	n := 6
	if depth > 0 {
		n = 8
	}
	switch r.Intn(n) {
	case 0:
		return Int(int64(r.Intn(2001) - 1000))
	case 1:
		return Real(float64(r.Intn(2000))/7.0 - 100)
	case 2:
		return Str(randWord(r))
	case 3:
		return Bool(r.Intn(2) == 0)
	case 4:
		return Undef()
	case 5:
		return Erroneous("generated")
	case 6:
		k := r.Intn(4)
		elems := make([]Value, k)
		for i := range elems {
			elems[i] = genValue(r, depth-1)
		}
		return ListOf(elems...)
	default:
		ad := NewAd()
		for i, k := 0, r.Intn(3); i < k; i++ {
			ad.Set(randWord(r), Lit(genValue(r, depth-1)))
		}
		return AdValue(ad)
	}
}

var words = []string{"Memory", "Disk", "Arch", "Owner", "LoadAvg", "raman",
	"intel", "sparc", "KFlops", "x", "y", "z"}

func randWord(r *rand.Rand) string { return words[r.Intn(len(words))] }

// genExpr produces a random expression of bounded depth over the
// attributes of a companion ad.
func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return Lit(genValue(r, 0))
		case 1:
			return Attr(randWord(r))
		default:
			return SelfAttr(randWord(r))
		}
	}
	switch r.Intn(10) {
	case 0, 1, 2:
		return Lit(genValue(r, depth-1))
	case 3:
		return Attr(randWord(r))
	case 4:
		ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return NewBinary(ops[r.Intn(len(ops))], genExpr(r, depth-1), genExpr(r, depth-1))
	case 5:
		ops := []Op{OpLt, OpLe, OpGt, OpGe, OpEq, OpNe}
		return NewBinary(ops[r.Intn(len(ops))], genExpr(r, depth-1), genExpr(r, depth-1))
	case 6:
		ops := []Op{OpAnd, OpOr, OpIs, OpIsnt}
		return NewBinary(ops[r.Intn(len(ops))], genExpr(r, depth-1), genExpr(r, depth-1))
	case 7:
		ops := []Op{OpNot, OpNeg, OpPlus}
		return NewUnary(ops[r.Intn(len(ops))], genExpr(r, depth-1))
	case 8:
		return NewCond(genExpr(r, depth-1), genExpr(r, depth-1), genExpr(r, depth-1))
	default:
		fns := []string{"member", "size", "int", "string", "strcat", "ifThenElse"}
		name := fns[r.Intn(len(fns))]
		var args []Expr
		arity := map[string]int{"member": 2, "size": 1, "int": 1, "string": 1,
			"strcat": 2, "ifThenElse": 3}[name]
		for i := 0; i < arity; i++ {
			args = append(args, genExpr(r, depth-1))
		}
		return NewCall(name, args...)
	}
}

func genAd(r *rand.Rand) *Ad {
	ad := NewAd()
	for i, k := 0, 1+r.Intn(6); i < k; i++ {
		ad.Set(randWord(r), Lit(genValue(r, 1)))
	}
	return ad
}

// TestQuickUnparseParseFixedPoint: for any generated expression e,
// parse(e.String()) unparses to the same text — the round-trip
// property the wire protocol depends on.
func TestQuickUnparseParseFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 4)
		text := e.String()
		back, err := ParseExpr(text)
		if err != nil {
			t.Logf("seed %d: cannot re-parse %q: %v", seed, text, err)
			return false
		}
		if back.String() != text {
			t.Logf("seed %d: %q -> %q", seed, text, back.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickEvalDeterministic: evaluation is a pure function of the
// (expression, ad, env) triple.
func TestQuickEvalDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 4)
		ad := genAd(r)
		env := FixedEnv(12345, 1)
		v1 := EvalExprEnv(e, ad, env)
		v2 := EvalExprEnv(e, ad, FixedEnv(12345, 1))
		return v1.Identical(v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickEvalNeverPanics: arbitrary expression/ad combinations must
// evaluate to a value, never panic.
func TestQuickEvalNeverPanics(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if p := recover(); p != nil {
				t.Logf("seed %d panicked: %v", seed, p)
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 5)
		ad := genAd(r)
		_ = EvalExprEnv(e, ad, FixedEnv(0, seed))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickValueStringParses: every generated literal value prints to
// a form the parser accepts and evaluates back to an identical value.
func TestQuickValueStringParses(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := genValue(r, 2)
		text := v.String()
		e, err := ParseExpr(text)
		if err != nil {
			t.Logf("seed %d: %q does not parse: %v", seed, text, err)
			return false
		}
		back := EvalExpr(e, nil)
		if !back.Identical(v) {
			t.Logf("seed %d: %q -> %v, want %v", seed, text, back, v)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickIdenticalIsEquivalence: Identical is reflexive and
// symmetric over generated values.
func TestQuickIdenticalIsEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genValue(r, 2)
		b := genValue(r, 2)
		if !a.Identical(a) || !b.Identical(b) {
			return false
		}
		return a.Identical(b) == b.Identical(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickMatchSymmetry: Match(a,b).Matched == Match(b,a).Matched for
// arbitrary generated ads with random constraints.
func TestQuickMatchSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genAd(r), genAd(r)
		a.Set(AttrConstraint, genExpr(r, 3))
		b.Set(AttrConstraint, genExpr(r, 3))
		env := FixedEnv(0, seed)
		ab := MatchEnv(a, b, env)
		ba := MatchEnv(b, a, env)
		return ab.Matched == ba.Matched && ab.LeftOK == ba.RightOK && ab.RightOK == ba.LeftOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickAndOrDuality: De Morgan holds in the three-valued logic:
// !(a && b) is identical to (!a || !b) whenever both sides are
// booleans, and both sides always have the same definedness class.
func TestQuickAndOrDuality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ad := genAd(r)
		a, b := genExpr(r, 3), genExpr(r, 3)
		env := FixedEnv(0, seed)
		lhs := EvalExprEnv(NewUnary(OpNot, NewBinary(OpAnd, a, b)), ad, env)
		rhs := EvalExprEnv(NewBinary(OpOr, NewUnary(OpNot, a), NewUnary(OpNot, b)), ad, env)
		// Generated expressions are pure except random(), which the
		// generator never emits, so double evaluation is safe.
		return lhs.Type() == rhs.Type() &&
			(lhs.Type() != BooleanType || lhs.IsTrue() == rhs.IsTrue())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickJSONRoundTrip: arbitrary generated ads survive the JSON
// wire mapping.
func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ad := genAd(r)
		ad.Set("Constraint", genExpr(r, 3))
		data, err := ad.MarshalJSON()
		if err != nil {
			return false
		}
		var back Ad
		if err := back.UnmarshalJSON(data); err != nil {
			t.Logf("seed %d: %v (json %s)", seed, err, data)
			return false
		}
		return ad.Equal(&back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickConstraintNeverCrashesMatch: matching ads with arbitrary
// constraint expressions never panics and always yields a boolean
// verdict.
func TestQuickConstraintNeverCrashesMatch(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if p := recover(); p != nil {
				t.Logf("seed %d panicked: %v", seed, p)
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		a, b := genAd(r), genAd(r)
		a.Set(AttrConstraint, genExpr(r, 4))
		b.Set(AttrConstraint, genExpr(r, 4))
		_ = MatchEnv(a, b, FixedEnv(0, seed))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSubstrInBounds: substr never returns out-of-range slices
// whatever the offsets.
func TestQuickSubstrInBounds(t *testing.T) {
	f := func(s string, off, length int16) bool {
		// Build the call programmatically to avoid escaping issues.
		e := NewCall("substr", Lit(Str(s)), Lit(Int(int64(off))), Lit(Int(int64(length))))
		v := EvalExpr(e, nil)
		out, ok := v.StringVal()
		if !ok {
			return false
		}
		return len(out) <= len(s) && (len(out) == 0 || strings.Contains(s, out))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickSameExpr: SameExpr decides exactly what comparing unparsed
// text decides — over independently generated pairs (mostly different),
// over an expression and its re-parse (equal text from a fresh tree),
// and over the pairs whose trees differ though their text does not.
func TestQuickSameExpr(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genExpr(r, 3), genExpr(r, 1)
		if SameExpr(a, b) != (a.String() == b.String()) {
			t.Errorf("SameExpr(%s, %s) = %v", a, b, SameExpr(a, b))
			return false
		}
		back, err := ParseExpr(a.String())
		if err != nil {
			return true // not this test's business
		}
		if SameExpr(a, back) != (a.String() == back.String()) {
			t.Errorf("SameExpr(%s, its re-parse %s) = %v", a, back, SameExpr(a, back))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, pair := range [][2]Expr{
		{Lit(Int(-1)), unaryExpr{OpNeg, Lit(Int(1))}},                    // same text, different trees
		{Lit(Real(0)), Lit(Real(math.Copysign(0, -1)))},                  // 0.0 and -0.0 print differently
		{Lit(Real(math.NaN())), Lit(Real(math.NaN()))},                   // NaN != NaN, same text
		{Lit(ListOf(Int(1), Int(2))), NewList(Lit(Int(1)), Lit(Int(2)))}, // list value vs list constructor
		{Attr("Memory"), Attr("memory")},                                 // same attribute, different text
		{Lit(Int(1)), Lit(Real(1))},
	} {
		if got, want := SameExpr(pair[0], pair[1]), pair[0].String() == pair[1].String(); got != want {
			t.Errorf("SameExpr(%s, %s) = %v, text equality %v", pair[0], pair[1], got, want)
		}
	}
}
