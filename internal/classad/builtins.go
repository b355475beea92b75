package classad

import (
	"math"
	"regexp"
	"strconv"
	"strings"
)

// builtinFn implements one builtin function. Arguments arrive
// unevaluated so that functions such as ifThenElse and isUndefined can
// control evaluation themselves; most builtins evaluate eagerly via
// evalArgs.
type builtinFn func(ctx evalCtx, args []Expr) Value

// builtins maps folded function names to implementations. The set
// covers the functions used by deployed Condor policy expressions of
// the paper's era — member() appears in Figure 1 — plus the string,
// numeric, type-test and list helpers needed by the examples and the
// matchmaker's own tooling.
var builtins map[string]builtinFn

func init() {
	builtins = map[string]builtinFn{
		"member":          fnMember,
		"identicalmember": fnIdenticalMember,
		"strcmp":          fnStrcmp,
		"stricmp":         fnStricmp,
		"toupper":         fnToUpper,
		"tolower":         fnToLower,
		"substr":          fnSubstr,
		"strcat":          fnStrcat,
		"size":            fnSize,
		"int":             fnInt,
		"real":            fnReal,
		"string":          fnString,
		"bool":            fnBool,
		"floor":           fnFloor,
		"ceiling":         fnCeiling,
		"ceil":            fnCeiling,
		"round":           fnRound,
		"abs":             fnAbs,
		"pow":             fnPow,
		"sqrt":            fnSqrt,
		"quantize":        fnQuantize,
		"min":             fnMin,
		"max":             fnMax,
		"sum":             fnSum,
		"avg":             fnAvg,
		"isundefined":     typeTest(UndefinedType),
		"iserror":         typeTest(ErrorType),
		"isstring":        typeTest(StringType),
		"isinteger":       typeTest(IntegerType),
		"isreal":          typeTest(RealType),
		"isboolean":       typeTest(BooleanType),
		"islist":          typeTest(ListType),
		"isclassad":       typeTest(AdType),
		"ifthenelse":      fnIfThenElse,
		"anycompare":      fnAnyCompare,
		"allcompare":      fnAllCompare,
		"regexp":          fnRegexp,
		"regexps":         fnRegexps,
		"splitlist":       fnSplitList,
		"join":            fnJoin,
		"random":          fnRandom,
		"time":            fnTime,
		"currenttime":     fnTime,
		"daytime":         fnDayTime,
		"interval":        fnInterval,
		"unparse":         fnUnparse,
	}
}

// BuiltinNames returns the sorted names of all builtin functions, for
// documentation and the analyzer's diagnostics.
func BuiltinNames() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func evalArgs(ctx evalCtx, args []Expr) []Value {
	out := make([]Value, len(args))
	for i, a := range args {
		out[i] = a.eval(ctx)
	}
	return out
}

// argErr builds the standard wrong-arity error.
func argErr(name string, want string, got int) Value {
	return Erroneous("%s() expects %s argument(s), got %d", name, want, got)
}

// propagate returns the dominant non-value among vs (error beats
// undefined) and ok=false, or ok=true if all vs are proper values.
func propagate(vs ...Value) (Value, bool) {
	undef := false
	for _, v := range vs {
		if v.IsError() {
			return v, false
		}
		if v.IsUndefined() {
			undef = true
		}
	}
	if undef {
		return Undef(), false
	}
	return Value{}, true
}

// fnMember implements member(item, list): true if item equals (under
// the == operator's case-insensitive string semantics) some element of
// list. Figure 1 of the paper uses it to test research-group and
// friend membership. Undefined items or lists propagate undefined.
func fnMember(ctx evalCtx, args []Expr) Value {
	if len(args) != 2 {
		return argErr("member", "2", len(args))
	}
	item, second := args[0].eval(ctx), args[1].eval(ctx)
	if bad, ok := propagate(item, second); !ok {
		return bad
	}
	list, ok := second.ListVal()
	if !ok {
		// Tolerate reversed argument order, seen in old policy
		// files: member(list, item).
		if l2, ok2 := item.ListVal(); ok2 {
			list, item = l2, second
		} else {
			return Erroneous("member() second argument must be a list, got %s", second.Type())
		}
	}
	sawUndef := false
	for _, el := range list {
		eq := evalCompare(OpEq, item, el)
		if eq.IsTrue() {
			return Bool(true)
		}
		if eq.IsUndefined() {
			sawUndef = true
		}
	}
	if sawUndef {
		return Undef()
	}
	return Bool(false)
}

// fnIdenticalMember is member() under the case-sensitive `is`
// identity instead of ==.
func fnIdenticalMember(ctx evalCtx, args []Expr) Value {
	if len(args) != 2 {
		return argErr("identicalMember", "2", len(args))
	}
	vs := evalArgs(ctx, args)
	if vs[0].IsError() {
		return vs[0]
	}
	if vs[1].IsError() {
		return vs[1]
	}
	list, ok := vs[1].ListVal()
	if !ok {
		if vs[1].IsUndefined() {
			return Undef()
		}
		return Erroneous("identicalMember() second argument must be a list, got %s", vs[1].Type())
	}
	for _, el := range list {
		if vs[0].Identical(el) {
			return Bool(true)
		}
	}
	return Bool(false)
}

func twoStrings(name string, ctx evalCtx, args []Expr) (a, b string, bad Value, ok bool) {
	if len(args) != 2 {
		return "", "", argErr(name, "2", len(args)), false
	}
	vs := evalArgs(ctx, args)
	if v, allOK := propagate(vs...); !allOK {
		return "", "", v, false
	}
	a, okA := vs[0].StringVal()
	b, okB := vs[1].StringVal()
	if !okA || !okB {
		return "", "", Erroneous("%s() expects string arguments", name), false
	}
	return a, b, Value{}, true
}

// fnStrcmp implements strcmp(a, b): the C convention, negative / zero
// / positive, case-sensitive.
func fnStrcmp(ctx evalCtx, args []Expr) Value {
	a, b, bad, ok := twoStrings("strcmp", ctx, args)
	if !ok {
		return bad
	}
	return Int(int64(strings.Compare(a, b)))
}

// fnStricmp is strcmp folded to lower case.
func fnStricmp(ctx evalCtx, args []Expr) Value {
	a, b, bad, ok := twoStrings("stricmp", ctx, args)
	if !ok {
		return bad
	}
	return Int(int64(foldCompare(a, b)))
}

func oneString(name string, ctx evalCtx, args []Expr) (string, Value, bool) {
	if len(args) != 1 {
		return "", argErr(name, "1", len(args)), false
	}
	v := args[0].eval(ctx)
	if bad, ok := propagate(v); !ok {
		return "", bad, false
	}
	s, ok := v.StringVal()
	if !ok {
		return "", Erroneous("%s() expects a string argument, got %s", name, v.Type()), false
	}
	return s, Value{}, true
}

func fnToUpper(ctx evalCtx, args []Expr) Value {
	s, bad, ok := oneString("toUpper", ctx, args)
	if !ok {
		return bad
	}
	return Str(strings.ToUpper(s))
}

func fnToLower(ctx evalCtx, args []Expr) Value {
	s, bad, ok := oneString("toLower", ctx, args)
	if !ok {
		return bad
	}
	return Str(strings.ToLower(s))
}

// fnSubstr implements substr(s, offset [, length]). Negative offsets
// count from the end; results are clamped to the string, matching the
// tolerant semantics of the deployed implementation.
func fnSubstr(ctx evalCtx, args []Expr) Value {
	if len(args) != 2 && len(args) != 3 {
		return argErr("substr", "2 or 3", len(args))
	}
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	s, ok := vs[0].StringVal()
	if !ok {
		return Erroneous("substr() first argument must be a string, got %s", vs[0].Type())
	}
	off, ok := vs[1].IntVal()
	if !ok {
		return Erroneous("substr() offset must be an integer, got %s", vs[1].Type())
	}
	n := int64(len(s))
	if off < 0 {
		off += n
	}
	if off < 0 {
		off = 0
	}
	if off > n {
		off = n
	}
	length := n - off
	if len(vs) == 3 {
		l, ok := vs[2].IntVal()
		if !ok {
			return Erroneous("substr() length must be an integer, got %s", vs[2].Type())
		}
		if l < 0 {
			// Negative length: leave that many chars off the end.
			l = n - off + l
		}
		if l < 0 {
			l = 0
		}
		if l < length {
			length = l
		}
	}
	return Str(s[off : off+length])
}

// fnStrcat concatenates the string form of all its arguments.
func fnStrcat(ctx evalCtx, args []Expr) Value {
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	var b strings.Builder
	for _, v := range vs {
		if s, ok := v.StringVal(); ok {
			b.WriteString(s)
		} else {
			b.WriteString(v.String())
		}
	}
	return Str(b.String())
}

// fnSize returns the length of a string or list, or the number of
// attributes of a classad.
func fnSize(ctx evalCtx, args []Expr) Value {
	if len(args) != 1 {
		return argErr("size", "1", len(args))
	}
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType:
		return v
	case StringType:
		s, _ := v.StringVal()
		return Int(int64(len(s)))
	case ListType:
		l, _ := v.ListVal()
		return Int(int64(len(l)))
	case AdType:
		ad, _ := v.AdVal()
		return Int(int64(ad.Len()))
	default:
		return Erroneous("size() of %s", v.Type())
	}
}

// fnInt converts to integer: reals truncate, booleans map to 0/1,
// numeric strings parse; anything else is an error.
func fnInt(ctx evalCtx, args []Expr) Value {
	if len(args) != 1 {
		return argErr("int", "1", len(args))
	}
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType:
		return v
	case IntegerType:
		return v
	case RealType:
		r, _ := v.RealVal()
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return Erroneous("int() of non-finite real")
		}
		return Int(int64(r))
	case BooleanType:
		if v.IsTrue() {
			return Int(1)
		}
		return Int(0)
	case StringType:
		s, _ := v.StringVal()
		if i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err == nil {
			return Int(i)
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
			return Int(int64(f))
		}
		return Erroneous("int() cannot parse %q", s)
	default:
		return Erroneous("int() of %s", v.Type())
	}
}

// fnReal converts to real; the string forms "INF", "-INF" and "NaN"
// are accepted (they are also how the unparser prints non-finite
// reals).
func fnReal(ctx evalCtx, args []Expr) Value {
	if len(args) != 1 {
		return argErr("real", "1", len(args))
	}
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType, RealType:
		return v
	case IntegerType:
		i, _ := v.IntVal()
		return Real(float64(i))
	case BooleanType:
		if v.IsTrue() {
			return Real(1)
		}
		return Real(0)
	case StringType:
		s := strings.TrimSpace(mustString(v))
		switch strings.ToUpper(s) {
		case "INF", "+INF", "INFINITY":
			return Real(math.Inf(1))
		case "-INF", "-INFINITY":
			return Real(math.Inf(-1))
		case "NAN":
			return Real(math.NaN())
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Real(f)
		}
		return Erroneous("real() cannot parse %q", s)
	default:
		return Erroneous("real() of %s", v.Type())
	}
}

func mustString(v Value) string {
	s, _ := v.StringVal()
	return s
}

// fnString renders any value as its string form; strings pass through
// unquoted.
func fnString(ctx evalCtx, args []Expr) Value {
	if len(args) != 1 {
		return argErr("string", "1", len(args))
	}
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType:
		return v
	case StringType:
		return v
	default:
		return Str(v.String())
	}
}

// fnBool coerces to boolean with the same rules as the Boolean
// operators, plus "true"/"false" strings.
func fnBool(ctx evalCtx, args []Expr) Value {
	if len(args) != 1 {
		return argErr("bool", "1", len(args))
	}
	v := args[0].eval(ctx)
	if s, ok := v.StringVal(); ok {
		switch strings.ToLower(strings.TrimSpace(s)) {
		case "true", "t", "1", "yes":
			return Bool(true)
		case "false", "f", "0", "no":
			return Bool(false)
		default:
			return Erroneous("bool() cannot parse %q", s)
		}
	}
	return toBool(v)
}

func realFn(name string, f func(float64) float64) builtinFn {
	return func(ctx evalCtx, args []Expr) Value {
		if len(args) != 1 {
			return argErr(name, "1", len(args))
		}
		v := args[0].eval(ctx)
		switch v.Type() {
		case UndefinedType, ErrorType:
			return v
		}
		n, ok := v.NumberVal()
		if !ok {
			return Erroneous("%s() of %s", name, v.Type())
		}
		r := f(n)
		if r == math.Trunc(r) && !math.IsInf(r, 0) && math.Abs(r) < 1<<62 {
			return Int(int64(r))
		}
		return Real(r)
	}
}

var (
	fnFloor   = realFn("floor", math.Floor)
	fnCeiling = realFn("ceiling", math.Ceil)
	fnRound   = realFn("round", math.Round)
)

// fnAbs preserves the operand's numeric type.
func fnAbs(ctx evalCtx, args []Expr) Value {
	if len(args) != 1 {
		return argErr("abs", "1", len(args))
	}
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType:
		return v
	case IntegerType:
		i, _ := v.IntVal()
		if i < 0 {
			return Int(-i)
		}
		return v
	case RealType:
		r, _ := v.RealVal()
		return Real(math.Abs(r))
	default:
		return Erroneous("abs() of %s", v.Type())
	}
}

// fnPow raises base to exp. Integer base and non-negative integer
// exponent yield an integer when the result fits.
func fnPow(ctx evalCtx, args []Expr) Value {
	if len(args) != 2 {
		return argErr("pow", "2", len(args))
	}
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	b, okB := vs[0].NumberVal()
	e, okE := vs[1].NumberVal()
	if !okB || !okE {
		return Erroneous("pow() expects numeric arguments")
	}
	r := math.Pow(b, e)
	if vs[0].Type() == IntegerType && vs[1].Type() == IntegerType && e >= 0 &&
		r == math.Trunc(r) && math.Abs(r) < 1<<62 {
		return Int(int64(r))
	}
	return Real(r)
}

func fnSqrt(ctx evalCtx, args []Expr) Value {
	if len(args) != 1 {
		return argErr("sqrt", "1", len(args))
	}
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType:
		return v
	}
	n, ok := v.NumberVal()
	if !ok {
		return Erroneous("sqrt() of %s", v.Type())
	}
	if n < 0 {
		return Erroneous("sqrt() of negative number")
	}
	return Real(math.Sqrt(n))
}

// fnQuantize rounds value up to the next multiple of quantum, the
// convention used for memory and disk requests.
func fnQuantize(ctx evalCtx, args []Expr) Value {
	if len(args) != 2 {
		return argErr("quantize", "2", len(args))
	}
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	val, okV := vs[0].NumberVal()
	q, okQ := vs[1].NumberVal()
	if !okV || !okQ {
		return Erroneous("quantize() expects numeric arguments")
	}
	if q <= 0 {
		return Erroneous("quantize() quantum must be positive")
	}
	r := math.Ceil(val/q) * q
	if vs[0].Type() == IntegerType && vs[1].Type() == IntegerType {
		return Int(int64(r))
	}
	return Real(r)
}

// foldNumeric implements min/max/sum/avg over either a single list
// argument or multiple scalar arguments.
func foldNumeric(name string, ctx evalCtx, args []Expr, combine func(acc, x float64) float64, finish func(acc float64, n int) Value) Value {
	vs := evalArgs(ctx, args)
	if len(vs) == 1 {
		if l, ok := vs[0].ListVal(); ok {
			vs = l
		}
	}
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	if len(vs) == 0 {
		return Undef()
	}
	allInt := true
	var acc float64
	for i, v := range vs {
		n, ok := v.NumberVal()
		if !ok {
			return Erroneous("%s() expects numeric values, got %s", name, v.Type())
		}
		if v.Type() != IntegerType {
			allInt = false
		}
		if i == 0 {
			acc = n
		} else {
			acc = combine(acc, n)
		}
	}
	out := finish(acc, len(vs))
	if allInt && out.Type() == RealType {
		if r, _ := out.RealVal(); r == math.Trunc(r) {
			// Keep integer typing for all-integer inputs when exact.
			if name != "avg" {
				return Int(int64(r))
			}
		}
	}
	return out
}

func fnMin(ctx evalCtx, args []Expr) Value {
	return foldNumeric("min", ctx, args, math.Min, func(a float64, _ int) Value { return Real(a) })
}

func fnMax(ctx evalCtx, args []Expr) Value {
	return foldNumeric("max", ctx, args, math.Max, func(a float64, _ int) Value { return Real(a) })
}

func fnSum(ctx evalCtx, args []Expr) Value {
	return foldNumeric("sum", ctx, args, func(a, x float64) float64 { return a + x },
		func(a float64, _ int) Value { return Real(a) })
}

func fnAvg(ctx evalCtx, args []Expr) Value {
	return foldNumeric("avg", ctx, args, func(a, x float64) float64 { return a + x },
		func(a float64, n int) Value { return Real(a / float64(n)) })
}

// typeTest builds the isX() predicates. They are non-strict: that is
// their whole point.
func typeTest(t ValueType) builtinFn {
	return func(ctx evalCtx, args []Expr) Value {
		if len(args) != 1 {
			return argErr("is"+t.String(), "1", len(args))
		}
		return Bool(args[0].eval(ctx).Type() == t)
	}
}

// fnIfThenElse is the functional form of ?:, evaluating only the
// selected branch.
func fnIfThenElse(ctx evalCtx, args []Expr) Value {
	if len(args) != 3 {
		return argErr("ifThenElse", "3", len(args))
	}
	c := toBool(args[0].eval(ctx))
	switch c.Type() {
	case BooleanType:
		if c.IsTrue() {
			return args[1].eval(ctx)
		}
		return args[2].eval(ctx)
	default:
		return c
	}
}

var compareOps = map[string]Op{
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe, "==": OpEq, "!=": OpNe,
	"is": OpIs, "isnt": OpIsnt,
}

// fnAnyCompare implements anyCompare(op, list, value): true if the
// comparison holds between any list element and value.
func fnAnyCompare(ctx evalCtx, args []Expr) Value {
	return compareFold("anyCompare", ctx, args, false)
}

// fnAllCompare is the universal counterpart of anyCompare.
func fnAllCompare(ctx evalCtx, args []Expr) Value {
	return compareFold("allCompare", ctx, args, true)
}

func compareFold(name string, ctx evalCtx, args []Expr, all bool) Value {
	if len(args) != 3 {
		return argErr(name, "3", len(args))
	}
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	opStr, ok := vs[0].StringVal()
	if !ok {
		return Erroneous("%s() first argument must be a comparison operator string", name)
	}
	op, ok := compareOps[strings.ToLower(strings.TrimSpace(opStr))]
	if !ok {
		return Erroneous("%s(): unknown comparison operator %q", name, opStr)
	}
	list, ok := vs[1].ListVal()
	if !ok {
		return Erroneous("%s() second argument must be a list", name)
	}
	for _, el := range list {
		var r Value
		switch op {
		case OpIs:
			r = Bool(el.Identical(vs[2]))
		case OpIsnt:
			r = Bool(!el.Identical(vs[2]))
		default:
			r = evalCompare(op, el, vs[2])
		}
		if all {
			if !r.IsTrue() {
				return Bool(false)
			}
		} else if r.IsTrue() {
			return Bool(true)
		}
	}
	return Bool(all)
}

// fnRegexp implements regexp(pattern, target [, options]): a match
// test using Go's RE2 syntax; option "i" folds case.
func fnRegexp(ctx evalCtx, args []Expr) Value {
	if len(args) != 2 && len(args) != 3 {
		return argErr("regexp", "2 or 3", len(args))
	}
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	pat, okP := vs[0].StringVal()
	tgt, okT := vs[1].StringVal()
	if !okP || !okT {
		return Erroneous("regexp() expects string arguments")
	}
	if len(vs) == 3 {
		opts, ok := vs[2].StringVal()
		if !ok {
			return Erroneous("regexp() options must be a string")
		}
		if strings.Contains(strings.ToLower(opts), "i") {
			pat = "(?i)" + pat
		}
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return Erroneous("regexp(): bad pattern %q: %v", pat, err)
	}
	return Bool(re.MatchString(tgt))
}

// fnRegexps implements regexps(pattern, target, substitute): regexp
// replacement with $1-style group references.
func fnRegexps(ctx evalCtx, args []Expr) Value {
	if len(args) != 3 {
		return argErr("regexps", "3", len(args))
	}
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	pat, okP := vs[0].StringVal()
	tgt, okT := vs[1].StringVal()
	sub, okS := vs[2].StringVal()
	if !okP || !okT || !okS {
		return Erroneous("regexps() expects string arguments")
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return Erroneous("regexps(): bad pattern %q: %v", pat, err)
	}
	return Str(re.ReplaceAllString(tgt, sub))
}

// fnSplitList splits a comma- or space-separated string into a list
// of trimmed strings.
func fnSplitList(ctx evalCtx, args []Expr) Value {
	if len(args) != 1 && len(args) != 2 {
		return argErr("splitList", "1 or 2", len(args))
	}
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	s, ok := vs[0].StringVal()
	if !ok {
		return Erroneous("splitList() expects a string, got %s", vs[0].Type())
	}
	seps := ", "
	if len(vs) == 2 {
		if sp, ok := vs[1].StringVal(); ok {
			seps = sp
		} else {
			return Erroneous("splitList() separator must be a string")
		}
	}
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return strings.ContainsRune(seps, r)
	})
	out := make([]Value, 0, len(fields))
	for _, f := range fields {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, Str(f))
		}
	}
	return ListOf(out...)
}

// fnJoin concatenates a list of values with a separator:
// join(sep, list).
func fnJoin(ctx evalCtx, args []Expr) Value {
	if len(args) != 2 {
		return argErr("join", "2", len(args))
	}
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	sep, okS := vs[0].StringVal()
	list, okL := vs[1].ListVal()
	if !okS || !okL {
		return Erroneous("join() expects (string, list)")
	}
	parts := make([]string, len(list))
	for i, el := range list {
		if s, ok := el.StringVal(); ok {
			parts[i] = s
		} else {
			parts[i] = el.String()
		}
	}
	return Str(strings.Join(parts, sep))
}

// fnRandom returns a uniform real in [0, x) — x defaults to 1.0; an
// integer argument yields an integer result in [0, x).
func fnRandom(ctx evalCtx, args []Expr) Value {
	if len(args) > 1 {
		return argErr("random", "0 or 1", len(args))
	}
	u := ctx.st.env.Rand()
	if len(args) == 0 {
		return Real(u)
	}
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType:
		return v
	case IntegerType:
		n, _ := v.IntVal()
		if n <= 0 {
			return Erroneous("random() bound must be positive")
		}
		return Int(int64(u * float64(n)))
	case RealType:
		r, _ := v.RealVal()
		if r <= 0 {
			return Erroneous("random() bound must be positive")
		}
		return Real(u * r)
	default:
		return Erroneous("random() of %s", v.Type())
	}
}

// fnTime returns the environment's current time in seconds since the
// Unix epoch; the simulator injects virtual time here.
func fnTime(ctx evalCtx, args []Expr) Value {
	if len(args) != 0 {
		return argErr("time", "0", len(args))
	}
	return Int(ctx.st.env.Now())
}

// fnDayTime returns the number of seconds since local midnight of the
// environment's current time — the paper's DayTime attribute
// ("current time in seconds since midnight", Figure 1), so an RA can
// publish DayTime = dayTime() and have night-only policies evaluate
// correctly at claim time.
func fnDayTime(ctx evalCtx, args []Expr) Value {
	if len(args) != 0 {
		return argErr("dayTime", "0", len(args))
	}
	now := ctx.st.env.Now()
	secs := now % 86400
	if secs < 0 {
		secs += 86400
	}
	return Int(secs)
}

// fnInterval renders a duration in seconds as the conventional
// "days+hh:mm:ss" display form used by queue tools.
func fnInterval(ctx evalCtx, args []Expr) Value {
	if len(args) != 1 {
		return argErr("interval", "1", len(args))
	}
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType:
		return v
	}
	n, ok := v.NumberVal()
	if !ok {
		return Erroneous("interval() of %s", v.Type())
	}
	secs := int64(n)
	neg := ""
	if secs < 0 {
		neg, secs = "-", -secs
	}
	days := secs / 86400
	secs %= 86400
	h, m, s := secs/3600, (secs%3600)/60, secs%60
	if days > 0 {
		return Str(strings.TrimPrefix(neg+sprintfInterval(days, h, m, s), ""))
	}
	return Str(neg + sprintfHMS(h, m, s))
}

func sprintfInterval(days, h, m, s int64) string {
	return strconvI(days) + "+" + sprintfHMS(h, m, s)
}

func sprintfHMS(h, m, s int64) string {
	pad := func(x int64) string {
		if x < 10 {
			return "0" + strconvI(x)
		}
		return strconvI(x)
	}
	return pad(h) + ":" + pad(m) + ":" + pad(s)
}

func strconvI(x int64) string { return strconv.FormatInt(x, 10) }

// fnUnparse renders its single argument's *expression* (not its
// value) in canonical source form — the introspection helper status
// tools use to display policies. The argument is intentionally not
// evaluated.
func fnUnparse(ctx evalCtx, args []Expr) Value {
	if len(args) != 1 {
		return argErr("unparse", "1", len(args))
	}
	// For an attribute reference, unparse the referenced attribute's
	// definition if it exists in scope; otherwise unparse the
	// argument expression itself.
	if ref, ok := args[0].(attrRef); ok && ref.scope != ScopeOther {
		if e, found := ctx.self.LookupKey(ref.key); found {
			return Str(e.String())
		}
		return Undef()
	}
	return Str(args[0].String())
}
