package classad

import (
	"math"
	"strings"
	"testing"
)

func TestMember(t *testing.T) {
	ad := MustParse(`[ Group = {"raman", "miron", "solomon"}; Empty = {} ]`)
	cases := map[string]string{
		`member("raman", Group)`:   "T",
		`member("RAMAN", Group)`:   "T", // == is case-insensitive
		`member("nobody", Group)`:  "F",
		`member("x", Empty)`:       "F",
		`member(Missing, Group)`:   "U",
		`member("x", Missing)`:     "U",
		`member(1/0, Group)`:       "E",
		`member("x", {1, "x", 2})`: "T",
		// Mixed-type comparisons inside member are skipped (they
		// produce errors element-wise, treated as no-match), so a
		// string never "equals" an integer.
		`member("1", {1})`: "F",
		// Reversed argument order tolerated.
		`member(Group, "miron")`: "T",
	}
	for src, w := range cases {
		if got := evalStr(t, src, ad); !valueMatchesLetter(got, w) {
			t.Errorf("%s = %v, want %s", src, got, w)
		}
	}
	if got := evalStr(t, `member("x", "not a list")`, ad); !got.IsError() {
		t.Errorf("member with non-list = %v, want error", got)
	}
}

func TestMemberUndefinedElement(t *testing.T) {
	// If no element matches but some comparison was undefined, the
	// result is undefined (can't prove absence).
	ad := MustParse(`[ L = {Missing, "b"} ]`)
	if got := evalStr(t, `member("zzz", L)`, ad); !got.IsUndefined() {
		t.Errorf("member over list with undefined element = %v, want undefined", got)
	}
	// But a definite hit still wins.
	if got := evalStr(t, `member("b", L)`, ad); !got.IsTrue() {
		t.Errorf("member hit despite undefined element = %v, want true", got)
	}
}

func TestIdenticalMember(t *testing.T) {
	cases := map[string]string{
		`identicalMember("a", {"A", "a"})`:        "T",
		`identicalMember("A", {"a"})`:             "F", // case-sensitive
		`identicalMember(1, {1.0})`:               "F", // type-sensitive
		`identicalMember(undefined, {undefined})`: "T",
		`identicalMember("x", Missing)`:           "U",
	}
	for src, w := range cases {
		if got := evalStr(t, src, nil); !valueMatchesLetter(got, w) {
			t.Errorf("%s = %v, want %s", src, got, w)
		}
	}
}

func TestStringFunctions(t *testing.T) {
	cases := map[string]Value{
		`strcmp("a", "b")`:         Int(-1),
		`strcmp("b", "a")`:         Int(1),
		`strcmp("a", "a")`:         Int(0),
		`strcmp("a", "A")`:         Int(1), // case-sensitive
		`stricmp("a", "A")`:        Int(0),
		`toUpper("MixedCase")`:     Str("MIXEDCASE"),
		`toLower("MixedCase")`:     Str("mixedcase"),
		`substr("workstation", 4)`: Str("station"),
		`substr("hello", 1, 3)`:    Str("ell"),
		`substr("hello", -3)`:      Str("llo"),
		`substr("hello", 0, -1)`:   Str("hell"),
		`substr("hello", 99)`:      Str(""),
		`substr("hello", 2, 99)`:   Str("llo"),
		`strcat("a", "b", "c")`:    Str("abc"),
		`strcat("n=", 5)`:          Str("n=5"),
		`size("hello")`:            Int(5),
		`size({1,2,3})`:            Int(3),
		`size([a=1; b=2])`:         Int(2),
		`join(",", {"a", "b"})`:    Str("a,b"),
		`join("-", {1, 2})`:        Str("1-2"),
	}
	for src, want := range cases {
		if got := evalStr(t, src, nil); !got.Identical(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	if got := evalStr(t, `strcmp(1, "a")`, nil); !got.IsError() {
		t.Errorf("strcmp with non-string = %v, want error", got)
	}
	if got := evalStr(t, `substr(5, 1)`, nil); !got.IsError() {
		t.Errorf("substr of integer = %v, want error", got)
	}
	if got := evalStr(t, `size(5)`, nil); !got.IsError() {
		t.Errorf("size of integer = %v, want error", got)
	}
}

func TestSplitList(t *testing.T) {
	v := evalStr(t, `splitList("intel, sparc alpha")`, nil)
	list, ok := v.ListVal()
	if !ok || len(list) != 3 {
		t.Fatalf("splitList = %v", v)
	}
	want := []string{"intel", "sparc", "alpha"}
	for i, w := range want {
		if s, _ := list[i].StringVal(); s != w {
			t.Errorf("element %d = %v, want %q", i, list[i], w)
		}
	}
	v = evalStr(t, `splitList("a:b:c", ":")`, nil)
	if list, _ := v.ListVal(); len(list) != 3 {
		t.Errorf("splitList with custom sep = %v", v)
	}
}

func TestConversions(t *testing.T) {
	cases := map[string]Value{
		`int(3.9)`:     Int(3),
		`int(-3.9)`:    Int(-3),
		`int(true)`:    Int(1),
		`int("42")`:    Int(42),
		`int(" 42 ")`:  Int(42),
		`int("3.9")`:   Int(3),
		`real(3)`:      Real(3),
		`real("2.5")`:  Real(2.5),
		`real(false)`:  Real(0),
		`string(42)`:   Str("42"),
		`string(true)`: Str("true"),
		`string("s")`:  Str("s"),
		`string(2.5)`:  Str("2.5"),
		`bool(1)`:      Bool(true),
		`bool(0)`:      Bool(false),
		`bool("true")`: Bool(true),
		`bool("no")`:   Bool(false),
		`bool(0.0)`:    Bool(false),
	}
	for src, want := range cases {
		if got := evalStr(t, src, nil); !got.Identical(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	for _, src := range []string{`int("x")`, `real("x")`, `bool("maybe")`, `int({1})`} {
		if got := evalStr(t, src, nil); !got.IsError() {
			t.Errorf("%s = %v, want error", src, got)
		}
	}
	// real("INF") round-trips the unparser's encoding of infinities.
	v := evalStr(t, `real("INF")`, nil)
	if r, _ := v.RealVal(); !math.IsInf(r, 1) {
		t.Errorf(`real("INF") = %v`, v)
	}
}

func TestNumericFunctions(t *testing.T) {
	cases := map[string]Value{
		`floor(3.7)`:      Int(3),
		`floor(-3.2)`:     Int(-4),
		`ceiling(3.2)`:    Int(4),
		`ceil(3.2)`:       Int(4),
		`round(3.5)`:      Int(4),
		`round(2.4)`:      Int(2),
		`abs(-5)`:         Int(5),
		`abs(5)`:          Int(5),
		`abs(-2.5)`:       Real(2.5),
		`pow(2, 10)`:      Int(1024),
		`pow(2.0, 2)`:     Real(4),
		`pow(2, -1)`:      Real(0.5),
		`sqrt(16)`:        Real(4),
		`quantize(3, 8)`:  Int(8),
		`quantize(17, 8)`: Int(24),
		`quantize(0, 8)`:  Int(0),
		`min({3, 1, 2})`:  Int(1),
		`max({3, 1, 2})`:  Int(3),
		`min(3, 1, 2)`:    Int(1),
		`max(2.5, 1)`:     Real(2.5),
		`sum({1, 2, 3})`:  Int(6),
		`sum({1.5, 2})`:   Real(3.5),
		`avg({1, 2, 3})`:  Real(2),
		`avg({2, 4})`:     Real(3),
	}
	for src, want := range cases {
		if got := evalStr(t, src, nil); !got.Identical(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	if got := evalStr(t, `sqrt(-1)`, nil); !got.IsError() {
		t.Errorf("sqrt(-1) = %v, want error", got)
	}
	if got := evalStr(t, `quantize(5, 0)`, nil); !got.IsError() {
		t.Errorf("quantize by zero = %v, want error", got)
	}
	if got := evalStr(t, `min({})`, nil); !got.IsUndefined() {
		t.Errorf("min of empty = %v, want undefined", got)
	}
	if got := evalStr(t, `sum({1, "x"})`, nil); !got.IsError() {
		t.Errorf("sum with string = %v, want error", got)
	}
	if got := evalStr(t, `max({1, Missing})`, nil); !got.IsUndefined() {
		t.Errorf("max with undefined = %v, want undefined", got)
	}
}

func TestTypeTests(t *testing.T) {
	cases := map[string]bool{
		`isUndefined(Missing)`: true,
		`isUndefined(1)`:       false,
		`isError(1/0)`:         true,
		`isError(1)`:           false,
		`isString("s")`:        true,
		`isInteger(1)`:         true,
		`isInteger(1.0)`:       false,
		`isReal(1.0)`:          true,
		`isBoolean(true)`:      true,
		`isList({1})`:          true,
		`isClassAd([a=1])`:     true,
		`isClassAd({1})`:       false,
	}
	for src, want := range cases {
		got := evalStr(t, src, nil)
		if b, _ := got.BoolVal(); b != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestIfThenElse(t *testing.T) {
	if got := evalStr(t, `ifThenElse(2 > 1, "yes", 1/0)`, nil); !got.Identical(Str("yes")) {
		t.Errorf("ifThenElse did not short-circuit: %v", got)
	}
	if got := evalStr(t, `ifThenElse(Missing, 1, 2)`, nil); !got.IsUndefined() {
		t.Errorf("ifThenElse(undefined) = %v, want undefined", got)
	}
	if got := evalStr(t, `ifThenElse(1, "a", "b")`, nil); !got.Identical(Str("a")) {
		t.Errorf("numeric condition = %v", got)
	}
}

func TestAnyAllCompare(t *testing.T) {
	cases := map[string]string{
		`anyCompare("<", {1, 5, 9}, 3)`: "T",
		`anyCompare("<", {5, 9}, 3)`:    "F",
		`allCompare("<", {1, 2}, 3)`:    "T",
		`allCompare("<", {1, 5}, 3)`:    "F",
		`anyCompare("==", {"A"}, "a")`:  "T",
		`anyCompare("is", {"A"}, "a")`:  "F",
		`allCompare("is", {}, 1)`:       "T", // vacuous truth
		`anyCompare("==", {}, 1)`:       "F",
		`anyCompare(">=", {10}, 10)`:    "T",
		`anyCompare("isnt", {1, 2}, 1)`: "T",
	}
	for src, w := range cases {
		if got := evalStr(t, src, nil); !valueMatchesLetter(got, w) {
			t.Errorf("%s = %v, want %s", src, got, w)
		}
	}
	if got := evalStr(t, `anyCompare("@@", {1}, 1)`, nil); !got.IsError() {
		t.Errorf("bad operator = %v, want error", got)
	}
}

func TestRegexpFunctions(t *testing.T) {
	cases := map[string]string{
		`regexp("^INTEL", "INTEL-x86")`:         "T",
		`regexp("^intel", "INTEL-x86")`:         "F",
		`regexp("^intel", "INTEL-x86", "i")`:    "T",
		`regexp("sol.*251", "SOLARIS251", "I")`: "T", // option letter folds too
		`regexp("SOL.*251", "SOLARIS251")`:      "T",
	}
	for src, w := range cases {
		if got := evalStr(t, src, nil); !valueMatchesLetter(got, w) {
			t.Errorf("%s = %v, want %s", src, got, w)
		}
	}
	v := evalStr(t, `regexps("(\\w+)@(\\w+)", "user@host", "$2/$1")`, nil)
	if s, _ := v.StringVal(); s != "host/user" {
		t.Errorf("regexps = %v, want host/user", v)
	}
	if got := evalStr(t, `regexp("(unclosed", "x")`, nil); !got.IsError() {
		t.Errorf("bad pattern = %v, want error", got)
	}
}

func TestRegexpCaseInsensitiveOption(t *testing.T) {
	if got := evalStr(t, `regexp("sol.*251", "SOLARIS251", "i")`, nil); !got.IsTrue() {
		t.Errorf("case-folded regexp = %v, want true", got)
	}
}

func TestRandomAndTime(t *testing.T) {
	env := FixedEnv(1000, 1)
	for i := 0; i < 20; i++ {
		v := EvalExprEnv(MustParseExpr("random()"), nil, env)
		r, ok := v.RealVal()
		if !ok || r < 0 || r >= 1 {
			t.Fatalf("random() = %v, want real in [0,1)", v)
		}
	}
	for i := 0; i < 20; i++ {
		v := EvalExprEnv(MustParseExpr("random(10)"), nil, env)
		n, ok := v.IntVal()
		if !ok || n < 0 || n >= 10 {
			t.Fatalf("random(10) = %v, want integer in [0,10)", v)
		}
	}
	if got := EvalExprEnv(MustParseExpr("random(-1)"), nil, env); !got.IsError() {
		t.Errorf("random(-1) = %v, want error", got)
	}
	if got := EvalExprEnv(MustParseExpr("time()"), nil, env); !got.Identical(Int(1000)) {
		t.Errorf("time() = %v, want 1000", got)
	}
	if got := EvalExprEnv(MustParseExpr("currentTime()"), nil, env); !got.Identical(Int(1000)) {
		t.Errorf("currentTime() = %v, want 1000", got)
	}
}

// TestArityErrors pins the evaluator's wrong-argument-count messages,
// which name the row's display name, not the name called.
func TestArityErrors(t *testing.T) {
	for src, want := range map[string]string{
		`member(1)`:         `member() expects 2 argument(s), got 1`,
		`strcmp(1)`:         `strcmp() expects 2 argument(s), got 1`,
		`substr()`:          `substr() expects 2 or 3 argument(s), got 0`,
		`size()`:            `size() expects 1 argument(s), got 0`,
		`int(1, 2)`:         `int() expects 1 argument(s), got 2`,
		`ifThenElse(1, 2)`:  `ifThenElse() expects 3 argument(s), got 2`,
		`pow(1)`:            `pow() expects 2 argument(s), got 1`,
		`time(1)`:           `time() expects 0 argument(s), got 1`,
		`random(1, 2)`:      `random() expects 0 or 1 argument(s), got 2`,
		`anyCompare(1, 2)`:  `anyCompare() expects 3 argument(s), got 2`,
		`identicalMember()`: `identicalMember() expects 2 argument(s), got 0`,
		`ceil(1, 2)`:        `ceiling() expects 1 argument(s), got 2`,
		`currentTime(1)`:    `time() expects 0 argument(s), got 1`,
		`dayTime(1)`:        `dayTime() expects 0 argument(s), got 1`,
		`isClassAd()`:       `isclassad() expects 1 argument(s), got 0`,
		`splitList()`:       `splitList() expects 1 or 2 argument(s), got 0`,
	} {
		if got := evalStr(t, src, nil); !got.IsError() || got.ErrMessage() != want {
			t.Errorf("%s = %v %q, want error %q", src, got, got.ErrMessage(), want)
		}
	}
}

func TestBuiltinNamesSorted(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 30 {
		t.Errorf("only %d builtins registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("names not sorted at %d: %q < %q", i, names[i], names[i-1])
		}
	}
	found := false
	for _, n := range names {
		if n == "member" {
			found = true
		}
	}
	if !found {
		t.Error("member missing from BuiltinNames")
	}
}

func TestStrcatRendersNonStrings(t *testing.T) {
	v := evalStr(t, `strcat("list=", {1,2})`, nil)
	s, _ := v.StringVal()
	if !strings.Contains(s, "{1, 2}") {
		t.Errorf("strcat list rendering = %q", s)
	}
}
