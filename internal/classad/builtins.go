package classad

import (
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// builtinFn implements one builtin function. Arguments arrive
// unevaluated so that functions such as ifThenElse and isUndefined can
// control evaluation themselves; most builtins evaluate eagerly via
// evalArgs. name is the row's display name, for messages, and the
// evaluator has already checked len(args) against the row's range.
type builtinFn func(ctx evalCtx, name string, args []Expr) Value

// Builtin is one row of the builtin function table: all that the
// evaluator, partial evaluation, the matchmaker and the static
// analyzer know about a function, declared once beside its code.
// TestBuiltinTableAgreesWithEvaluator holds every row to its code.
type Builtin struct {
	Name     string  // display name for messages: "ceiling" for ceil
	Min, Max int     // accepted argument counts; Max < 0 is variadic
	Impure   bool    // reads the Env clock or random stream
	Probes   bool    // its arguments may name missing attributes
	Results  TypeSet // every type a call with Min..Max arguments can return
	fn       builtinFn
}

// TypeSet is a set of value types: bit 1<<t for each ValueType t.
type TypeSet uint

const (
	tUndef TypeSet = 1 << UndefinedType
	tErr   TypeSet = 1 << ErrorType
	tBool  TypeSet = 1 << BooleanType
	tInt   TypeSet = 1 << IntegerType
	tReal  TypeSet = 1 << RealType
	tStr   TypeSet = 1 << StringType
	tList  TypeSet = 1 << ListType
	tAd    TypeSet = 1 << AdType

	strict = tUndef | tErr // what propagating undefined and error adds
	tNum   = tInt | tReal
	tAny   = strict | tBool | tNum | tStr | tList | tAd
)

// String names the types in s in ValueType order, joined by "|".
func (s TypeSet) String() string {
	var names []string
	for t := UndefinedType; t <= AdType; t++ {
		if s&(1<<t) != 0 {
			names = append(names, t.String())
		}
	}
	return strings.Join(names, "|")
}

// builtins maps folded function names to their rows. The set covers
// the functions used by deployed Condor policy expressions of the
// paper's era — member() appears in Figure 1 — plus the string,
// numeric, type-test and list helpers needed by the examples and the
// matchmaker's own tooling. Probes marks the functions whose point is
// to test what an argument names (isUndefined(X)), so the analyzer
// does not warn that X may be missing.
var builtins map[string]*Builtin

func init() {
	add := func(a, x float64) float64 { return a + x }
	isType := func(t ValueType) *Builtin {
		probes := t == UndefinedType || t == ErrorType
		return &Builtin{Name: "is" + t.String(), Min: 1, Max: 1, Probes: probes, Results: tBool, fn: typeTest(t)}
	}
	builtins = map[string]*Builtin{
		"member":          {Name: "member", Min: 2, Max: 2, Results: tBool | strict, fn: fnMember},
		"identicalmember": {Name: "identicalMember", Min: 2, Max: 2, Results: tBool | strict, fn: fnIdenticalMember},
		"strcmp":          {Name: "strcmp", Min: 2, Max: 2, Results: tInt | strict, fn: fnStrcmp},
		"stricmp":         {Name: "stricmp", Min: 2, Max: 2, Results: tInt | strict, fn: fnStricmp},
		"toupper":         {Name: "toUpper", Min: 1, Max: 1, Results: tStr | strict, fn: stringFn(strings.ToUpper)},
		"tolower":         {Name: "toLower", Min: 1, Max: 1, Results: tStr | strict, fn: stringFn(strings.ToLower)},
		"substr":          {Name: "substr", Min: 2, Max: 3, Results: tStr | strict, fn: fnSubstr},
		"strcat":          {Name: "strcat", Min: 0, Max: -1, Results: tStr | strict, fn: fnStrcat},
		"size":            {Name: "size", Min: 1, Max: 1, Results: tInt | strict, fn: fnSize},
		"int":             {Name: "int", Min: 1, Max: 1, Results: tInt | strict, fn: fnInt},
		"real":            {Name: "real", Min: 1, Max: 1, Results: tReal | strict, fn: fnReal},
		"string":          {Name: "string", Min: 1, Max: 1, Results: tStr | strict, fn: fnString},
		"bool":            {Name: "bool", Min: 1, Max: 1, Results: tBool | strict, fn: fnBool},
		"floor":           {Name: "floor", Min: 1, Max: 1, Results: tNum | strict, fn: realFn(math.Floor)},
		"ceiling":         {Name: "ceiling", Min: 1, Max: 1, Results: tNum | strict, fn: realFn(math.Ceil)},
		"ceil":            {Name: "ceiling", Min: 1, Max: 1, Results: tNum | strict, fn: realFn(math.Ceil)},
		"round":           {Name: "round", Min: 1, Max: 1, Results: tNum | strict, fn: realFn(math.Round)},
		"abs":             {Name: "abs", Min: 1, Max: 1, Results: tNum | strict, fn: fnAbs},
		"pow":             {Name: "pow", Min: 2, Max: 2, Results: tNum | strict, fn: fnPow},
		"sqrt":            {Name: "sqrt", Min: 1, Max: 1, Results: tReal | strict, fn: fnSqrt},
		"quantize":        {Name: "quantize", Min: 2, Max: 2, Results: tNum | strict, fn: fnQuantize},
		"min":             {Name: "min", Min: 0, Max: -1, Results: tNum | strict, fn: foldNumeric(math.Min, false)},
		"max":             {Name: "max", Min: 0, Max: -1, Results: tNum | strict, fn: foldNumeric(math.Max, false)},
		"sum":             {Name: "sum", Min: 0, Max: -1, Results: tNum | strict, fn: foldNumeric(add, false)},
		"avg":             {Name: "avg", Min: 0, Max: -1, Results: tNum | strict, fn: foldNumeric(add, true)},
		"isundefined":     isType(UndefinedType),
		"iserror":         isType(ErrorType),
		"isstring":        isType(StringType),
		"isinteger":       isType(IntegerType),
		"isreal":          isType(RealType),
		"isboolean":       isType(BooleanType),
		"islist":          isType(ListType),
		"isclassad":       isType(AdType),
		"ifthenelse":      {Name: "ifThenElse", Min: 3, Max: 3, Results: tAny, fn: fnIfThenElse},
		"anycompare":      {Name: "anyCompare", Min: 3, Max: 3, Results: tBool | strict, fn: compareFold(false)},
		"allcompare":      {Name: "allCompare", Min: 3, Max: 3, Results: tBool | strict, fn: compareFold(true)},
		"regexp":          {Name: "regexp", Min: 2, Max: 3, Results: tBool | strict, fn: fnRegexp},
		"regexps":         {Name: "regexps", Min: 3, Max: 3, Results: tStr | strict, fn: fnRegexps},
		"splitlist":       {Name: "splitList", Min: 1, Max: 2, Results: tList | strict, fn: fnSplitList},
		"join":            {Name: "join", Min: 2, Max: 2, Results: tStr | strict, fn: fnJoin},
		"random":          {Name: "random", Min: 0, Max: 1, Impure: true, Results: tNum | strict, fn: fnRandom},
		"time":            {Name: "time", Min: 0, Max: 0, Impure: true, Results: tInt | tErr, fn: fnTime},
		"currenttime":     {Name: "time", Min: 0, Max: 0, Impure: true, Results: tInt | tErr, fn: fnTime},
		"daytime":         {Name: "dayTime", Min: 0, Max: 0, Impure: true, Results: tInt | tErr, fn: fnDayTime},
		"interval":        {Name: "interval", Min: 1, Max: 1, Results: tStr | strict, fn: fnInterval},
		"unparse":         {Name: "unparse", Min: 1, Max: 1, Probes: true, Results: tStr | strict, fn: fnUnparse},
	}
}

// LookupBuiltin returns the row of the builtin called name
// (case-insensitive); ok is false when there is none.
func LookupBuiltin(name string) (b Builtin, ok bool) {
	p, ok := builtins[Fold(name)]
	if ok {
		b = *p
	}
	return b, ok
}

// BuiltinNames returns the sorted folded names of all builtin
// functions, for documentation and the analyzer's diagnostics.
func BuiltinNames() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// arityErr is the error of a call with got arguments, outside the
// row's range; callExpr.eval checks the range before every call.
func (b *Builtin) arityErr(got int) Value {
	want := strconv.Itoa(b.Min)
	if b.Max != b.Min {
		want += " or " + strconv.Itoa(b.Max)
	}
	return Erroneous("%s() expects %s argument(s), got %d", b.Name, want, got)
}

func evalArgs(ctx evalCtx, args []Expr) []Value {
	out := make([]Value, len(args))
	for i, a := range args {
		out[i] = a.eval(ctx)
	}
	return out
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
func fnMember(ctx evalCtx, name string, args []Expr) Value {
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
			return Erroneous("%s() second argument must be a list, got %s", name, second.Type())
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
func fnIdenticalMember(ctx evalCtx, name string, args []Expr) Value {
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
		return Erroneous("%s() second argument must be a list, got %s", name, vs[1].Type())
	}
	for _, el := range list {
		if vs[0].Identical(el) {
			return Bool(true)
		}
	}
	return Bool(false)
}

func twoStrings(ctx evalCtx, name string, args []Expr) (a, b string, bad Value, ok bool) {
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
func fnStrcmp(ctx evalCtx, name string, args []Expr) Value {
	a, b, bad, ok := twoStrings(ctx, name, args)
	if !ok {
		return bad
	}
	return Int(int64(strings.Compare(a, b)))
}

// fnStricmp is strcmp folded to lower case.
func fnStricmp(ctx evalCtx, name string, args []Expr) Value {
	a, b, bad, ok := twoStrings(ctx, name, args)
	if !ok {
		return bad
	}
	return Int(int64(foldCompare(a, b)))
}

// stringFn builds the one-string mappings toUpper and toLower.
func stringFn(f func(string) string) builtinFn {
	return func(ctx evalCtx, name string, args []Expr) Value {
		v := args[0].eval(ctx)
		if bad, ok := propagate(v); !ok {
			return bad
		}
		s, ok := v.StringVal()
		if !ok {
			return Erroneous("%s() expects a string argument, got %s", name, v.Type())
		}
		return Str(f(s))
	}
}

// fnSubstr implements substr(s, offset [, length]). Negative offsets
// count from the end; results are clamped to the string, matching the
// tolerant semantics of the deployed implementation.
func fnSubstr(ctx evalCtx, name string, args []Expr) Value {
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	s, ok := vs[0].StringVal()
	if !ok {
		return Erroneous("%s() first argument must be a string, got %s", name, vs[0].Type())
	}
	off, ok := vs[1].IntVal()
	if !ok {
		return Erroneous("%s() offset must be an integer, got %s", name, vs[1].Type())
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
			return Erroneous("%s() length must be an integer, got %s", name, vs[2].Type())
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
func fnStrcat(ctx evalCtx, _ string, args []Expr) Value {
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
func fnSize(ctx evalCtx, name string, args []Expr) Value {
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
		return Erroneous("%s() of %s", name, v.Type())
	}
}

// fnInt converts to integer: reals truncate, booleans map to 0/1,
// numeric strings parse; anything else is an error.
func fnInt(ctx evalCtx, name string, args []Expr) Value {
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType:
		return v
	case IntegerType:
		return v
	case RealType:
		r, _ := v.RealVal()
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return Erroneous("%s() of non-finite real", name)
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
		return Erroneous("%s() cannot parse %q", name, s)
	default:
		return Erroneous("%s() of %s", name, v.Type())
	}
}

// fnReal converts to real; the string forms "INF", "-INF" and "NaN"
// are accepted (they are also how the unparser prints non-finite
// reals).
func fnReal(ctx evalCtx, name string, args []Expr) Value {
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
		return Erroneous("%s() cannot parse %q", name, s)
	default:
		return Erroneous("%s() of %s", name, v.Type())
	}
}

func mustString(v Value) string {
	s, _ := v.StringVal()
	return s
}

// fnString renders any value as its string form; strings pass through
// unquoted.
func fnString(ctx evalCtx, _ string, args []Expr) Value {
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
func fnBool(ctx evalCtx, name string, args []Expr) Value {
	v := args[0].eval(ctx)
	if s, ok := v.StringVal(); ok {
		switch strings.ToLower(strings.TrimSpace(s)) {
		case "true", "t", "1", "yes":
			return Bool(true)
		case "false", "f", "0", "no":
			return Bool(false)
		default:
			return Erroneous("%s() cannot parse %q", name, s)
		}
	}
	return toBool(v)
}

// realFn builds floor, ceiling and round: an integer when the result
// is one that fits, else a real (1e300, NaN, INF).
func realFn(f func(float64) float64) builtinFn {
	return func(ctx evalCtx, name string, args []Expr) Value {
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

// fnAbs preserves the operand's numeric type.
func fnAbs(ctx evalCtx, name string, args []Expr) Value {
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
		return Erroneous("%s() of %s", name, v.Type())
	}
}

// fnPow raises base to exp. Integer base and non-negative integer
// exponent yield an integer when the result fits.
func fnPow(ctx evalCtx, name string, args []Expr) Value {
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	b, okB := vs[0].NumberVal()
	e, okE := vs[1].NumberVal()
	if !okB || !okE {
		return Erroneous("%s() expects numeric arguments", name)
	}
	r := math.Pow(b, e)
	if vs[0].Type() == IntegerType && vs[1].Type() == IntegerType && e >= 0 &&
		r == math.Trunc(r) && math.Abs(r) < 1<<62 {
		return Int(int64(r))
	}
	return Real(r)
}

func fnSqrt(ctx evalCtx, name string, args []Expr) Value {
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType:
		return v
	}
	n, ok := v.NumberVal()
	if !ok {
		return Erroneous("%s() of %s", name, v.Type())
	}
	if n < 0 {
		return Erroneous("%s() of negative number", name)
	}
	return Real(math.Sqrt(n))
}

// fnQuantize rounds value up to the next multiple of quantum, the
// convention used for memory and disk requests.
func fnQuantize(ctx evalCtx, name string, args []Expr) Value {
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	val, okV := vs[0].NumberVal()
	q, okQ := vs[1].NumberVal()
	if !okV || !okQ {
		return Erroneous("%s() expects numeric arguments", name)
	}
	if q <= 0 {
		return Erroneous("%s() quantum must be positive", name)
	}
	r := math.Ceil(val/q) * q
	if vs[0].Type() == IntegerType && vs[1].Type() == IntegerType {
		return Int(int64(r))
	}
	return Real(r)
}

// foldNumeric builds min/max/sum (mean false) and avg (mean true) over
// either a single list argument or any number of scalar arguments; no
// values at all is undefined. min/max/sum keep integer typing for
// all-integer inputs when the result is exact.
func foldNumeric(combine func(acc, x float64) float64, mean bool) builtinFn {
	return func(ctx evalCtx, name string, args []Expr) Value {
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
		if mean {
			return Real(acc / float64(len(vs)))
		}
		if allInt && acc == math.Trunc(acc) {
			return Int(int64(acc))
		}
		return Real(acc)
	}
}

// typeTest builds the isX() predicates. They are non-strict: that is
// their whole point.
func typeTest(t ValueType) builtinFn {
	return func(ctx evalCtx, _ string, args []Expr) Value {
		return Bool(args[0].eval(ctx).Type() == t)
	}
}

// fnIfThenElse is the functional form of ?:, evaluating only the
// selected branch.
func fnIfThenElse(ctx evalCtx, _ string, args []Expr) Value {
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

// compareFold builds anyCompare(op, list, value), true if the
// comparison holds between any list element and value, and its
// universal counterpart allCompare (all true).
func compareFold(all bool) builtinFn {
	return func(ctx evalCtx, name string, args []Expr) Value {
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
}

// fnRegexp implements regexp(pattern, target [, options]): a match
// test using Go's RE2 syntax; option "i" folds case.
func fnRegexp(ctx evalCtx, name string, args []Expr) Value {
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	pat, okP := vs[0].StringVal()
	tgt, okT := vs[1].StringVal()
	if !okP || !okT {
		return Erroneous("%s() expects string arguments", name)
	}
	if len(vs) == 3 {
		opts, ok := vs[2].StringVal()
		if !ok {
			return Erroneous("%s() options must be a string", name)
		}
		if strings.Contains(strings.ToLower(opts), "i") {
			pat = "(?i)" + pat
		}
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return Erroneous("%s(): bad pattern %q: %v", name, pat, err)
	}
	return Bool(re.MatchString(tgt))
}

// fnRegexps implements regexps(pattern, target, substitute): regexp
// replacement with $1-style group references.
func fnRegexps(ctx evalCtx, name string, args []Expr) Value {
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	pat, okP := vs[0].StringVal()
	tgt, okT := vs[1].StringVal()
	sub, okS := vs[2].StringVal()
	if !okP || !okT || !okS {
		return Erroneous("%s() expects string arguments", name)
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return Erroneous("%s(): bad pattern %q: %v", name, pat, err)
	}
	return Str(re.ReplaceAllString(tgt, sub))
}

// fnSplitList splits a comma- or space-separated string into a list
// of trimmed strings.
func fnSplitList(ctx evalCtx, name string, args []Expr) Value {
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	s, ok := vs[0].StringVal()
	if !ok {
		return Erroneous("%s() expects a string, got %s", name, vs[0].Type())
	}
	seps := ", "
	if len(vs) == 2 {
		if sp, ok := vs[1].StringVal(); ok {
			seps = sp
		} else {
			return Erroneous("%s() separator must be a string", name)
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
func fnJoin(ctx evalCtx, name string, args []Expr) Value {
	vs := evalArgs(ctx, args)
	if bad, ok := propagate(vs...); !ok {
		return bad
	}
	sep, okS := vs[0].StringVal()
	list, okL := vs[1].ListVal()
	if !okS || !okL {
		return Erroneous("%s() expects (string, list)", name)
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
func fnRandom(ctx evalCtx, name string, args []Expr) Value {
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
			return Erroneous("%s() bound must be positive", name)
		}
		return Int(int64(u * float64(n)))
	case RealType:
		r, _ := v.RealVal()
		if r <= 0 {
			return Erroneous("%s() bound must be positive", name)
		}
		return Real(u * r)
	default:
		return Erroneous("%s() of %s", name, v.Type())
	}
}

// fnTime returns the environment's current time in seconds since the
// Unix epoch; the simulator injects virtual time here.
func fnTime(ctx evalCtx, _ string, _ []Expr) Value {
	return Int(ctx.st.env.Now())
}

// fnDayTime returns the number of seconds since local midnight of the
// environment's current time — the paper's DayTime attribute
// ("current time in seconds since midnight", Figure 1), so an RA can
// publish DayTime = dayTime() and have night-only policies evaluate
// correctly at claim time.
func fnDayTime(ctx evalCtx, _ string, _ []Expr) Value {
	now := ctx.st.env.Now()
	secs := now % 86400
	if secs < 0 {
		secs += 86400
	}
	return Int(secs)
}

// fnInterval renders a duration in seconds as the conventional
// "days+hh:mm:ss" display form used by queue tools.
func fnInterval(ctx evalCtx, name string, args []Expr) Value {
	v := args[0].eval(ctx)
	switch v.Type() {
	case UndefinedType, ErrorType:
		return v
	}
	n, ok := v.NumberVal()
	if !ok {
		return Erroneous("%s() of %s", name, v.Type())
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
		return Str(neg + strconvI(days) + "+" + sprintfHMS(h, m, s))
	}
	return Str(neg + sprintfHMS(h, m, s))
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
func fnUnparse(ctx evalCtx, _ string, args []Expr) Value {
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
