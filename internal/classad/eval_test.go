package classad

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// evalStr is a test helper: parse and evaluate src against ad (nil for
// an empty scope).
func evalStr(t *testing.T, src string, ad *Ad) Value {
	t.Helper()
	v, err := EvalString(src, ad)
	if err != nil {
		t.Fatalf("EvalString(%q): %v", src, err)
	}
	return v
}

func TestArithmeticTyping(t *testing.T) {
	cases := map[string]Value{
		"1 + 2":      Int(3),
		"1 + 2.0":    Real(3),
		"1.5 + 1.5":  Real(3),
		"5 - 7":      Int(-2),
		"3 * 4":      Int(12),
		"3 * 0.5":    Real(1.5),
		"7 / 2":      Int(3),  // integer division truncates
		"-7 / 2":     Int(-3), // toward zero
		"7.0 / 2":    Real(3.5),
		"7 % 3":      Int(1),
		"-7 % 3":     Int(-1),
		"7.5 % 2":    Real(1.5),
		"2 + true":   Int(3), // booleans coerce in arithmetic (Figure 1 Rank)
		"true * 10":  Int(10),
		"false * 10": Int(0),
	}
	for src, want := range cases {
		if got := evalStr(t, src, nil); !got.Identical(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	for _, src := range []string{
		"1 / 0", "1 % 0", "1.0 / 0.0", `"a" + 1`, `1 + "a"`, `{1} * 2`, "-[a=1]", `-"s"`,
	} {
		if got := evalStr(t, src, nil); !got.IsError() {
			t.Errorf("%s = %v, want error", src, got)
		}
	}
}

func TestStrictUndefinedPropagation(t *testing.T) {
	// Paper §3.1: comparison operators are strict; all of these are
	// undefined when Memory is missing.
	ad := NewAd() // no Memory attribute
	for _, src := range []string{
		"other.Memory > 32",
		"other.Memory == 32",
		"other.Memory != 32",
		"!(other.Memory == 32)",
		"Memory + 1",
		"-Memory",
		"Memory < 32",
	} {
		if got := evalStr(t, src, ad); !got.IsUndefined() {
			t.Errorf("%s = %v, want undefined", src, got)
		}
	}
}

func TestErrorDominatesUndefined(t *testing.T) {
	for _, src := range []string{
		"Missing + 1/0",
		"1/0 + Missing",
		"Missing < (1/0)",
	} {
		if got := evalStr(t, src, nil); !got.IsError() {
			t.Errorf("%s = %v, want error", src, got)
		}
	}
}

// TestThreeValuedLogicAnd exhaustively checks the non-strict
// conjunction table of paper §3.1 (experiment E4).
func TestThreeValuedLogicAnd(t *testing.T) {
	// Values: T, F, U (undefined), E (error).
	operands := map[string]string{
		"T": "true", "F": "false", "U": "Missing", "E": "1/0",
	}
	// false dominates, then error, then undefined.
	want := map[string]string{
		"TT": "T", "TF": "F", "TU": "U", "TE": "E",
		"FT": "F", "FF": "F", "FU": "F", "FE": "F",
		"UT": "U", "UF": "F", "UU": "U", "UE": "E",
		"ET": "E", "EF": "F", "EU": "E", "EE": "E",
	}
	for pair, w := range want {
		src := fmt.Sprintf("(%s) && (%s)", operands[pair[:1]], operands[pair[1:]])
		got := evalStr(t, src, nil)
		if !valueMatchesLetter(got, w) {
			t.Errorf("%s = %v, want %s", src, got, w)
		}
	}
}

// TestThreeValuedLogicOr checks the dual table: true dominates.
func TestThreeValuedLogicOr(t *testing.T) {
	operands := map[string]string{
		"T": "true", "F": "false", "U": "Missing", "E": "1/0",
	}
	want := map[string]string{
		"TT": "T", "TF": "T", "TU": "T", "TE": "T",
		"FT": "T", "FF": "F", "FU": "U", "FE": "E",
		"UT": "T", "UF": "U", "UU": "U", "UE": "E",
		"ET": "T", "EF": "E", "EU": "E", "EE": "E",
	}
	for pair, w := range want {
		src := fmt.Sprintf("(%s) || (%s)", operands[pair[:1]], operands[pair[1:]])
		got := evalStr(t, src, nil)
		if !valueMatchesLetter(got, w) {
			t.Errorf("%s = %v, want %s", src, got, w)
		}
	}
}

func valueMatchesLetter(v Value, letter string) bool {
	switch letter {
	case "T":
		return v.IsTrue()
	case "F":
		b, ok := v.BoolVal()
		return ok && !b
	case "U":
		return v.IsUndefined()
	case "E":
		return v.IsError()
	}
	return false
}

func TestPaperOrExample(t *testing.T) {
	// Paper §3.1: "Mips >= 10 || Kflops >= 1000 evaluates to true
	// whenever either of the attributes Mips or Kflops exists and
	// satisfies the indicated bound."
	src := "Mips >= 10 || Kflops >= 1000"
	cases := []struct {
		ad   string
		want string
	}{
		{"[Mips = 104]", "T"},              // only Mips, satisfies
		{"[Kflops = 21893]", "T"},          // only Kflops, satisfies
		{"[Mips = 5]", "U"},                // Mips fails, Kflops missing
		{"[Mips = 5; Kflops = 2000]", "T"}, // one of two satisfies
		{"[Mips = 5; Kflops = 5]", "F"},    // both exist, both fail
		{"[]", "U"},                        // neither exists
	}
	for _, c := range cases {
		got := evalStr(t, src, MustParse(c.ad))
		if !valueMatchesLetter(got, c.want) {
			t.Errorf("%s in %s = %v, want %s", src, c.ad, got, c.want)
		}
	}
}

func TestNotOperator(t *testing.T) {
	cases := map[string]string{
		"!true":    "F",
		"!false":   "T",
		"!Missing": "U",
		"!(1/0)":   "E",
		"!1":       "F", // numeric coercion
		"!0":       "T",
	}
	for src, w := range cases {
		if got := evalStr(t, src, nil); !valueMatchesLetter(got, w) {
			t.Errorf("%s = %v, want %s", src, got, w)
		}
	}
	if got := evalStr(t, `!"str"`, nil); !got.IsError() {
		t.Errorf(`!"str" = %v, want error`, got)
	}
}

func TestIsAndIsnt(t *testing.T) {
	cases := map[string]bool{
		"undefined is undefined":    true,
		"Missing is undefined":      true,
		"error is error":            true,
		"(1/0) is error":            true,
		"1 is 1":                    true,
		"1 is 1.0":                  false, // type-sensitive
		`"a" is "a"`:                true,
		`"a" is "A"`:                false, // case-sensitive, unlike ==
		`"a" == "A"`:                true,  // == folds case
		"{1,2} is {1,2}":            true,
		"{1,2} is {2,1}":            false,
		"[a=1] is [a=1]":            true,
		"[a=1] is [a=2]":            false,
		"[a=1] is [A=1]":            true, // attribute names fold
		"1 isnt 2":                  true,
		"undefined isnt error":      true,
		"other.Memory is undefined": true, // the paper's idiom
		"true is 1":                 false,
	}
	for src, want := range cases {
		got := evalStr(t, src, nil)
		b, ok := got.BoolVal()
		if !ok {
			t.Errorf("%s = %v, want boolean", src, got)
			continue
		}
		if b != want {
			t.Errorf("%s = %v, want %v", src, b, want)
		}
	}
}

func TestPaperIsUndefinedIdiom(t *testing.T) {
	// Paper §3.1: "other.Memory is undefined || other.Memory < 32".
	src := "other.Memory is undefined || other.Memory < 32"
	if got := evalStr(t, src, MustParse("[]")); !got.IsTrue() {
		t.Errorf("idiom with missing Memory = %v, want true", got)
	}
	// With self Memory via fallback disabled — evaluate against an ad
	// that has Memory; other is nil so other.Memory is undefined and
	// the first disjunct is true regardless.
	if got := evalStr(t, src, MustParse("[Memory = 64]")); !got.IsTrue() {
		t.Errorf("idiom with no other ad = %v, want true", got)
	}
}

func TestStringComparisons(t *testing.T) {
	cases := map[string]bool{
		`"abc" == "abc"`: true,
		`"abc" == "ABC"`: true, // case-insensitive
		`"abc" != "abd"`: true,
		`"abc" < "abd"`:  true,
		`"B" < "a"`:      true, // folded: "b" < "a" is false... b>a
	}
	// fix: "B" folds to "b", and "b" < "a" is false.
	cases[`"B" < "a"`] = false
	cases[`"A" < "b"`] = true
	for src, want := range cases {
		got := evalStr(t, src, nil)
		if b, _ := got.BoolVal(); b != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	// Mixed-type comparisons are errors.
	for _, src := range []string{`"a" < 1`, `1 == "1"`, `true < false`, `{1} == {1}`} {
		if got := evalStr(t, src, nil); !got.IsError() {
			t.Errorf("%s = %v, want error", src, got)
		}
	}
	// Boolean equality works.
	if got := evalStr(t, "true == true", nil); !got.IsTrue() {
		t.Errorf("true == true = %v", got)
	}
	if got := evalStr(t, "true != false", nil); !got.IsTrue() {
		t.Errorf("true != false = %v", got)
	}
}

func TestConditionalStrictness(t *testing.T) {
	if got := evalStr(t, "Missing ? 1 : 2", nil); !got.IsUndefined() {
		t.Errorf("undefined condition = %v, want undefined", got)
	}
	if got := evalStr(t, "(1/0) ? 1 : 2", nil); !got.IsError() {
		t.Errorf("error condition = %v, want error", got)
	}
	// Numeric coercion in the condition (Condor compatibility).
	if got := evalStr(t, "1 ? 10 : 20", nil); !got.Identical(Int(10)) {
		t.Errorf("1 ? 10 : 20 = %v", got)
	}
	// Only the selected branch evaluates.
	if got := evalStr(t, "true ? 1 : (1/0)", nil); !got.Identical(Int(1)) {
		t.Errorf("condition did not short-circuit: %v", got)
	}
}

func TestSelfScopeResolution(t *testing.T) {
	ad := MustParse(`[
		Memory = 64;
		Twice = Memory * 2;
		Deep = Twice + self.Memory;
	]`)
	if got := ad.Eval("Twice"); !got.Identical(Int(128)) {
		t.Errorf("Twice = %v, want 128", got)
	}
	if got := ad.Eval("Deep"); !got.Identical(Int(192)) {
		t.Errorf("Deep = %v, want 192", got)
	}
}

func TestCircularReferenceDetection(t *testing.T) {
	ad := MustParse(`[ a = b; b = a; self_loop = self_loop + 1 ]`)
	for _, name := range []string{"a", "b", "self_loop"} {
		if got := ad.Eval(name); !got.IsError() {
			t.Errorf("circular %s = %v, want error", name, got)
		}
	}
	// Circularity across a match: each ad's attribute refers to the
	// other's, forever.
	left := MustParse(`[ Constraint = other.Ping; Ping = other.Pong ]`)
	right := MustParse(`[ Pong = other.Ping ]`)
	v := left.EvalAgainst("Ping", right, nil)
	if !v.IsError() {
		t.Errorf("cross-ad circular reference = %v, want error", v)
	}
	// A diamond (shared non-circular reference) is fine.
	diamond := MustParse(`[ a = b + b; b = c; c = 1 ]`)
	if got := diamond.Eval("a"); !got.Identical(Int(2)) {
		t.Errorf("diamond a = %v, want 2", got)
	}
}

func TestCrossAdResolution(t *testing.T) {
	machine := MustParse(`[ Memory = 64; Arch = "INTEL" ]`)
	job := MustParse(`[ Memory = 31; Want = other.Memory; Fallback = Arch ]`)
	// other. goes to the candidate.
	if got := job.EvalAgainst("Want", machine, nil); !got.Identical(Int(64)) {
		t.Errorf("other.Memory = %v, want 64", got)
	}
	// Unqualified falls back to the candidate when self lacks it
	// (the Figure 2 behaviour).
	if got := job.EvalAgainst("Fallback", machine, nil); !got.Identical(Str("INTEL")) {
		t.Errorf("fallback Arch = %v, want INTEL", got)
	}
	// Self wins over other for unqualified names.
	if got := job.EvalAgainst("Memory", machine, nil); !got.Identical(Int(31)) {
		t.Errorf("self-preferred Memory = %v, want 31", got)
	}
	// Without a candidate, other.X is undefined.
	if got := job.Eval("Want"); !got.IsUndefined() {
		t.Errorf("other.Memory with nil candidate = %v, want undefined", got)
	}
}

func TestOtherAttributeEvaluatesInItsOwnScope(t *testing.T) {
	// When the machine's Rank mentions its own attributes, a job
	// evaluating other.Rank must see the machine's bindings, and the
	// machine expression's own `other` must flip back to the job.
	machine := MustParse(`[ Boost = 5; Rank = Boost + other.Weight ]`)
	job := MustParse(`[ Weight = 2; Peek = other.Rank ]`)
	if got := job.EvalAgainst("Peek", machine, nil); !got.Identical(Int(7)) {
		t.Errorf("other.Rank = %v, want 7 (flip must restore scopes)", got)
	}
}

func TestNestedAdScoping(t *testing.T) {
	ad := MustParse(`[
		inner = [ x = 2; y = x * 3 ];
		viaSelect = inner.y;
	]`)
	if got := ad.Eval("viaSelect"); !got.Identical(Int(6)) {
		t.Errorf("inner.y = %v, want 6", got)
	}
	// Selection on undefined propagates undefined; on error, error.
	if got := evalStr(t, "Missing.field", nil); !got.IsUndefined() {
		t.Errorf("Missing.field = %v, want undefined", got)
	}
	if got := evalStr(t, "(1/0).field", nil); !got.IsError() {
		t.Errorf("(1/0).field = %v, want error", got)
	}
	// Selection on a non-ad value is an error.
	if got := evalStr(t, "(42).x", nil); !got.IsError() {
		t.Errorf("(42).x = %v, want error", got)
	}
}

func TestDeepNestingBounded(t *testing.T) {
	// A chain a0 -> a1 -> ... -> aN of attribute references must not
	// blow the stack; it either evaluates (small N) or errors (huge N).
	ad := NewAd()
	n := 2000
	ad.SetInt("a0", 7)
	for i := 1; i <= n; i++ {
		ad.Set(fmt.Sprintf("a%d", i), Attr(fmt.Sprintf("a%d", i-1)))
	}
	v := ad.Eval(fmt.Sprintf("a%d", n))
	if !v.IsError() && !v.Identical(Int(7)) {
		t.Errorf("deep chain = %v, want 7 or error", v)
	}
	if !v.IsError() {
		t.Logf("chain of %d evaluated fully", n)
	}
}

func TestEvalAttrMissing(t *testing.T) {
	ad := MustParse("[a = 1]")
	if got := ad.Eval("nothere"); !got.IsUndefined() {
		t.Errorf("missing attribute = %v, want undefined", got)
	}
}

func TestFixedEnvDeterminism(t *testing.T) {
	env := FixedEnv(1234567, 42)
	ad := NewAd()
	v := ad.EvalEnv("x", env) // missing: undefined, but exercise env path
	if !v.IsUndefined() {
		t.Fatalf("unexpected %v", v)
	}
	e := MustParseExpr("time()")
	if got := EvalExprEnv(e, nil, env); !got.Identical(Int(1234567)) {
		t.Errorf("time() = %v, want 1234567", got)
	}
	// Same seed, same stream.
	a := FixedEnv(0, 7)
	b := FixedEnv(0, 7)
	ra := EvalExprEnv(MustParseExpr("random()"), nil, a)
	rb := EvalExprEnv(MustParseExpr("random()"), nil, b)
	if !ra.Identical(rb) {
		t.Errorf("random() with same seed differs: %v vs %v", ra, rb)
	}
}

func TestRankVal(t *testing.T) {
	cases := map[string]float64{
		"10":      10,
		"2.5":     2.5,
		"true":    0, // non-numeric counts as zero per the paper
		`"high"`:  0,
		"Missing": 0,
		"1/0":     0,
		"{1}":     0,
	}
	for src, want := range cases {
		got := evalStr(t, src, nil).RankVal()
		if got != want {
			t.Errorf("RankVal(%s) = %v, want %v", src, got, want)
		}
	}
}

// TestMatchAllocs pins the evaluator's allocation budget: matching the
// paper's Figure 1 machine against its Figure 2 job — four evaluations
// through attribute references, other. flips, member() and literal
// lists — allocates nothing. It was 106 allocations when every
// reference folded its name, made a context and a one-element scope
// chain, and updated a map, and every literal list was rebuilt per
// member() test. Under the race detector the ceiling is not zero,
// because sync.Pool then drops a share of the recycled evaluation
// states.
func TestMatchAllocs(t *testing.T) {
	machine, job := MustParse(Figure1Source), MustParse(Figure2Source)
	env := FixedEnv(0, 1)
	if !MatchEnv(job, machine, env).Matched {
		t.Fatal("the figures must match")
	}
	ceiling := 0
	if raceEnabled() {
		ceiling = 4
	}
	if got := testing.AllocsPerRun(200, func() { MatchEnv(job, machine, env) }); got > float64(ceiling) {
		t.Errorf("Match(Figure 2, Figure 1) allocates %.0f times, ceiling %d", got, ceiling)
	}
}

// raceEnabled reports that the test binary was built with -race (or
// that its build settings are unknown).
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return true
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestFoldCompare: the case-insensitive order == and stricmp() use is
// the order of the lower-cased strings, non-ASCII included.
func TestFoldCompare(t *testing.T) {
	words := []string{"", "a", "A", "ab", "AB", "aB", "b", "Z", "z", "intel", "INTEL", "Intel1",
		"é", "É", "straße", "STRASSE", "aé", "AÉ", "aİ", "ai", "K", "k"}
	for _, a := range words {
		for _, b := range words {
			if got, want := foldCompare(a, b), strings.Compare(strings.ToLower(a), strings.ToLower(b)); got != want {
				t.Errorf("foldCompare(%q, %q) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestConcurrentEvaluationSharesNothing evaluates one pair of ads from
// several goroutines at once, as the sharded scan does: evaluation
// state is recycled, so under -race this fails if two evaluations ever
// hold the same state.
func TestConcurrentEvaluationSharesNothing(t *testing.T) {
	machine, job := MustParse(Figure1Source), MustParse(Figure2Source)
	loop := MustParse(`[ Constraint = other.Ping; Ping = other.Pong ]`)
	back := MustParse(`[ Pong = other.Ping ]`)
	env := FixedEnv(0, 1)
	want := MatchEnv(job, machine, env)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := MatchEnv(job, machine, env); got != want {
					t.Errorf("concurrent Match = %+v, want %+v", got, want)
					return
				}
				if v := loop.EvalAgainst("Ping", back, env); !v.IsError() {
					t.Errorf("concurrent circular reference = %v, want error", v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLiteralListIsConstant: a list constructor of literals carries its
// value from construction — parsed, built with NewList, or produced by
// partial evaluation — and one with a computed element is still
// evaluated each time, in its own scope.
func TestLiteralListIsConstant(t *testing.T) {
	ad := MustParse(`[ Friends = { "tannenba", "wright" }; N = 2; Mixed = { 1, N + 1 }; Empty = {} ]`)
	want := ListOf(Str("tannenba"), Str("wright"))
	if got := ad.Eval("Friends"); !got.Identical(want) {
		t.Errorf("Friends = %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { ad.Eval("Friends") }); n > 1 {
		t.Errorf("evaluating a literal list allocates %.0f times", n)
	}
	if got := ad.Eval("Mixed"); !got.Identical(ListOf(Int(1), Int(3))) {
		t.Errorf("Mixed = %v, want {1, 3}", got)
	}
	ad.SetInt("N", 5)
	if got := ad.Eval("Mixed"); !got.Identical(ListOf(Int(1), Int(6))) {
		t.Errorf("Mixed after N changed = %v, want {1, 6}", got)
	}
	if got := ad.Eval("Empty"); !got.Identical(ListOf()) {
		t.Errorf("Empty = %v, want {}", got)
	}
	if got := EvalExpr(NewList(Lit(Int(1)), Lit(Str("a"))), nil); !got.Identical(ListOf(Int(1), Str("a"))) {
		t.Errorf("NewList of literals = %v", got)
	}
	mixed, _ := ad.Lookup("Mixed")
	if got := EvalExpr(PartialEval(mixed, ad, nil), nil); !got.Identical(ListOf(Int(1), Int(6))) {
		t.Errorf("partially evaluated Mixed = %v, want {1, 6}", got)
	}
}
