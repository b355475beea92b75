// Package classad implements the classified-advertisement (classad)
// language of Raman, Livny and Solomon, "Matchmaking: Distributed
// Resource Management for High Throughput Computing" (HPDC 1998).
//
// A classad is a mapping from case-insensitive attribute names to
// expressions. Expressions evaluate to one of eight value types:
// Integer, Real, String, Boolean, Undefined, Error, List, or a nested
// ClassAd. Evaluation uses a three-valued logic: a reference to a
// missing attribute yields Undefined, strict operators propagate it,
// and the Boolean connectives && and || are non-strict so that
// constraints over partially known objects can still be expressed
// (paper §3.1).
//
// The package provides a lexer and parser for the classad syntax of
// the paper (Figures 1 and 2), an evaluator with self/other scoping
// for two-way matching, a library of builtin functions, an unparser
// that round-trips, and a JSON mapping used by the wire protocol.
package classad

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ValueType identifies the dynamic type of a Value.
type ValueType int

// The eight classad value types.
const (
	UndefinedType ValueType = iota
	ErrorType
	BooleanType
	IntegerType
	RealType
	StringType
	ListType
	AdType
)

// String returns the conventional name of the type.
func (t ValueType) String() string {
	switch t {
	case UndefinedType:
		return "undefined"
	case ErrorType:
		return "error"
	case BooleanType:
		return "boolean"
	case IntegerType:
		return "integer"
	case RealType:
		return "real"
	case StringType:
		return "string"
	case ListType:
		return "list"
	case AdType:
		return "classad"
	default:
		return fmt.Sprintf("ValueType(%d)", int(t))
	}
}

// Value is the result of evaluating a classad expression. The zero
// Value is Undefined.
type Value struct {
	typ  ValueType
	num  float64 // integer (exact in mantissa), real, or boolean (0/1)
	str  string  // string payload; for ErrorType, a diagnostic message
	list []Value // list payload
	ad   *Ad     // classad payload
}

// Undef returns the undefined value.
func Undef() Value { return Value{typ: UndefinedType} }

// Erroneous returns an error value carrying a diagnostic message. The
// message is advisory only: all error values compare identically under
// the is operator, per the language semantics.
func Erroneous(format string, args ...any) Value {
	return Value{typ: ErrorType, str: fmt.Sprintf(format, args...)}
}

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{typ: BooleanType, num: 1}
	}
	return Value{typ: BooleanType, num: 0}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{typ: IntegerType, num: float64(i)} }

// Real returns a real value.
func Real(r float64) Value { return Value{typ: RealType, num: r} }

// Str returns a string value.
func Str(s string) Value { return Value{typ: StringType, str: s} }

// ListOf returns a list value holding vs. The slice is not copied.
func ListOf(vs ...Value) Value { return Value{typ: ListType, list: vs} }

// AdValue returns a value holding a nested classad.
func AdValue(ad *Ad) Value {
	if ad == nil {
		return Undef()
	}
	return Value{typ: AdType, ad: ad}
}

// Type reports the dynamic type of v.
func (v Value) Type() ValueType { return v.typ }

// IsUndefined reports whether v is the undefined value.
func (v Value) IsUndefined() bool { return v.typ == UndefinedType }

// IsError reports whether v is an error value.
func (v Value) IsError() bool { return v.typ == ErrorType }

// ErrMessage returns the diagnostic carried by an error value, or "".
func (v Value) ErrMessage() string {
	if v.typ == ErrorType {
		return v.str
	}
	return ""
}

// BoolVal returns the boolean payload; ok is false if v is not boolean.
func (v Value) BoolVal() (b, ok bool) {
	if v.typ != BooleanType {
		return false, false
	}
	return v.num != 0, true
}

// IsTrue reports whether v is the boolean true. The matchmaker uses
// this to test Constraint expressions: anything else — including
// undefined — fails the match (paper §3.2).
func (v Value) IsTrue() bool { return v.typ == BooleanType && v.num != 0 }

// IntVal returns the integer payload; ok is false if v is not integer.
func (v Value) IntVal() (int64, bool) {
	if v.typ != IntegerType {
		return 0, false
	}
	return int64(v.num), true
}

// RealVal returns the real payload; ok is false if v is not real.
func (v Value) RealVal() (float64, bool) {
	if v.typ != RealType {
		return 0, false
	}
	return v.num, true
}

// NumberVal returns v as a float64 if v is integer or real.
func (v Value) NumberVal() (float64, bool) {
	switch v.typ {
	case IntegerType, RealType:
		return v.num, true
	}
	return 0, false
}

// StringVal returns the string payload; ok is false if v is not a string.
func (v Value) StringVal() (string, bool) {
	if v.typ != StringType {
		return "", false
	}
	return v.str, true
}

// ListVal returns the list payload; ok is false if v is not a list.
// The returned slice aliases the value and must not be modified.
func (v Value) ListVal() ([]Value, bool) {
	if v.typ != ListType {
		return nil, false
	}
	return v.list, true
}

// AdVal returns the nested classad payload; ok is false otherwise.
func (v Value) AdVal() (*Ad, bool) {
	if v.typ != AdType {
		return nil, false
	}
	return v.ad, true
}

// RankVal interprets v as a Rank result per the paper: "non-integer
// values are treated as zero". Following deployed Condor behaviour we
// accept any numeric value and treat everything else as 0.
func (v Value) RankVal() float64 {
	if n, ok := v.NumberVal(); ok && !math.IsNaN(n) {
		return n
	}
	return 0
}

// Identical reports whether v and w are the same value under the
// non-strict `is` operator: same type and, recursively, the same
// payload. String comparison is case-sensitive here, unlike the ==
// operator. All error values are identical to each other; likewise
// undefined.
func (v Value) Identical(w Value) bool {
	if v.typ != w.typ {
		return false
	}
	switch v.typ {
	case UndefinedType, ErrorType:
		return true
	case BooleanType, IntegerType, RealType:
		return v.num == w.num
	case StringType:
		return v.str == w.str
	case ListType:
		if len(v.list) != len(w.list) {
			return false
		}
		for i := range v.list {
			if !v.list[i].Identical(w.list[i]) {
				return false
			}
		}
		return true
	case AdType:
		return v.ad.identical(w.ad)
	}
	return false
}

// String renders the value in classad source syntax. Strings are
// quoted, lists braced, nested ads bracketed.
func (v Value) String() string {
	var b strings.Builder
	v.write(&b)
	return b.String()
}

func (v Value) write(b *strings.Builder) {
	switch v.typ {
	case UndefinedType:
		b.WriteString("undefined")
	case ErrorType:
		b.WriteString("error")
	case BooleanType:
		if v.num != 0 {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case IntegerType:
		fmt.Fprintf(b, "%d", int64(v.num))
	case RealType:
		writeReal(b, v.num)
	case StringType:
		writeQuoted(b, v.str)
	case ListType:
		b.WriteByte('{')
		for i, e := range v.list {
			if i > 0 {
				b.WriteString(", ")
			}
			e.write(b)
		}
		b.WriteByte('}')
	case AdType:
		b.WriteString(v.ad.String())
	}
}

// writeReal prints a real so that it re-parses as a real (never as an
// integer literal).
func writeReal(b *strings.Builder, r float64) {
	if math.IsInf(r, 1) {
		b.WriteString("real(\"INF\")")
		return
	}
	if math.IsInf(r, -1) {
		b.WriteString("real(\"-INF\")")
		return
	}
	if math.IsNaN(r) {
		b.WriteString("real(\"NaN\")")
		return
	}
	s := fmt.Sprintf("%g", r)
	b.WriteString(s)
	if !strings.ContainsAny(s, ".eE") {
		b.WriteString(".0")
	}
}

func writeQuoted(b *strings.Builder, s string) {
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
}

// Ad is a classified advertisement: an ordered mapping from
// case-insensitive attribute names to expressions. Attribute insertion
// order is preserved for printing; lookup is by folded name.
type Ad struct {
	names []string        // defining-case names, in insertion order
	keys  []string        // their folded forms, parallel to names
	attrs map[string]Expr // folded name -> expression
	// pos holds source positions, parallel to names, when the ad was
	// parsed; nil for ads built programmatically. The zero value marks
	// an attribute set programmatically on a parsed ad.
	pos []srcPos
}

// Pos is a 1-based line/column source position.
type Pos struct {
	Line, Col int
}

// srcPos is a Pos as an ad stores it: every stored ad pays for its
// positions, and no source has two billion lines.
type srcPos struct{ line, col int32 }

// NewAd returns an empty classad.
func NewAd() *Ad {
	return &Ad{attrs: make(map[string]Expr)}
}

// newParsedAd returns an empty ad sized for the n attributes the parser
// is about to set, positions included: a stored ad then carries no
// slack, and parsing grows no map.
func newParsedAd(n int) *Ad {
	return &Ad{
		names: make([]string, 0, n),
		keys:  make([]string, 0, n),
		attrs: make(map[string]Expr, n),
		pos:   make([]srcPos, 0, n),
	}
}

// Fold normalizes an attribute name for case-insensitive comparison.
func Fold(name string) string { return strings.ToLower(name) }

// foldKey is Fold for what an ad or an expression keeps — attribute
// and function names. A pool's ads draw their names from one small
// vocabulary, so every kept key is the one shared copy of it: a stored
// ad pays for no key string, and a name met before in the same spelling
// folds without allocating. The table is bounded; past the bound names
// simply fold. Checking the count and inserting are not one step, so
// each goroutine that passes the check as the table fills can still add
// two entries (the key and its spelling): with G folding at once the
// table never holds more than maxInternedKeys + 2G − 1 entries.
func foldKey(name string) string {
	if key, ok := keyTable.Load(name); ok {
		return key.(string)
	}
	key := Fold(name)
	if keyCount.Load() < maxInternedKeys {
		if shared, loaded := keyTable.LoadOrStore(key, key); loaded {
			key = shared.(string)
		} else {
			keyCount.Add(1)
		}
		if name != key {
			if _, loaded := keyTable.LoadOrStore(name, key); !loaded {
				keyCount.Add(1)
			}
		}
	}
	return key
}

// maxInternedKeys bounds keyTable: names arrive from the network.
const maxInternedKeys = 8192

var (
	keyTable sync.Map // name, in any spelling seen -> its folded key
	keyCount atomic.Int64
)

// Len returns the number of attributes in the ad.
func (a *Ad) Len() int {
	if a == nil {
		return 0
	}
	return len(a.names)
}

// Names returns the attribute names in insertion order, with defining
// case. The caller must not modify the returned slice.
func (a *Ad) Names() []string {
	if a == nil {
		return nil
	}
	return a.names
}

// Keys returns the folded attribute names, parallel to Names: what
// LookupKey takes, for callers that walk an ad's attributes and must
// not pay for folding each name again. The caller must not modify the
// returned slice.
func (a *Ad) Keys() []string {
	if a == nil {
		return nil
	}
	return a.keys
}

// Lookup returns the expression bound to name (case-insensitive).
func (a *Ad) Lookup(name string) (Expr, bool) {
	if a == nil {
		return nil, false
	}
	e, ok := a.attrs[Fold(name)]
	return e, ok
}

// LookupKey is Lookup by the already folded name (Fold, Keys) — the
// evaluator's form, which never folds.
func (a *Ad) LookupKey(key string) (Expr, bool) {
	if a == nil {
		return nil, false
	}
	e, ok := a.attrs[key]
	return e, ok
}

// Set binds name to expr, replacing any previous binding. The defining
// case of the first insertion is kept for printing.
func (a *Ad) Set(name string, expr Expr) {
	key := foldKey(name)
	if _, exists := a.attrs[key]; !exists {
		a.names = append(a.names, name)
		a.keys = append(a.keys, key)
		if a.pos != nil {
			a.pos = append(a.pos, srcPos{})
		}
	}
	a.attrs[key] = expr
}

// index returns the position in a.names of the attribute with folded
// name key, or -1.
func (a *Ad) index(key string) int { return slices.Index(a.keys, key) }

// setParsed is Set for the parser, on an ad from newParsedAd: it also
// records the source position of the attribute's name token, so that
// diagnostics can point into the original source. Programmatically
// built ads carry no positions.
func (a *Ad) setParsed(name string, expr Expr, p Pos) {
	n := len(a.names)
	a.Set(name, expr)
	i := n // a new attribute was appended
	if len(a.names) == n {
		i = a.index(Fold(name)) // a repeated one keeps its first slot
	}
	a.pos[i] = srcPos{int32(p.Line), int32(p.Col)}
}

// AttrPos returns the source position of the attribute's definition
// when the ad was produced by the parser; ok is false for attributes
// set programmatically (and for ads built with NewAd).
func (a *Ad) AttrPos(name string) (Pos, bool) {
	if a == nil || a.pos == nil {
		return Pos{}, false
	}
	i := a.index(Fold(name))
	if i < 0 || a.pos[i] == (srcPos{}) {
		return Pos{}, false
	}
	return Pos{int(a.pos[i].line), int(a.pos[i].col)}, true
}

// Delete removes the binding for name, if any.
func (a *Ad) Delete(name string) {
	key := Fold(name)
	if _, exists := a.attrs[key]; !exists {
		return
	}
	delete(a.attrs, key)
	i := a.index(key)
	a.names = slices.Delete(a.names, i, i+1)
	a.keys = slices.Delete(a.keys, i, i+1)
	if a.pos != nil {
		a.pos = slices.Delete(a.pos, i, i+1)
	}
}

// SetInt binds name to an integer literal.
func (a *Ad) SetInt(name string, v int64) { a.Set(name, Lit(Int(v))) }

// SetReal binds name to a real literal.
func (a *Ad) SetReal(name string, v float64) { a.Set(name, Lit(Real(v))) }

// SetString binds name to a string literal.
func (a *Ad) SetString(name string, v string) { a.Set(name, Lit(Str(v))) }

// SetBool binds name to a boolean literal.
func (a *Ad) SetBool(name string, v bool) { a.Set(name, Lit(Bool(v))) }

// SetExprString parses src as an expression and binds name to it.
func (a *Ad) SetExprString(name, src string) error {
	e, err := ParseExpr(src)
	if err != nil {
		return err
	}
	a.Set(name, e)
	return nil
}

// Copy returns a deep-enough copy of the ad: the attribute table is
// copied; expressions are immutable after parsing and are shared.
func (a *Ad) Copy() *Ad {
	if a == nil {
		return nil
	}
	c := &Ad{
		names: slices.Clone(a.names),
		keys:  slices.Clone(a.keys),
		attrs: make(map[string]Expr, len(a.attrs)),
	}
	for k, v := range a.attrs {
		c.attrs[k] = v
	}
	if a.pos != nil {
		c.pos = slices.Clone(a.pos)
	}
	return c
}

// identical reports structural equality of two ads: the same attribute
// set with expressions that unparse identically.
func (a *Ad) identical(b *Ad) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, k := range a.keys { // in order: what a comparison costs does not depend on map iteration
		f, ok := b.attrs[k]
		if !ok || !SameExpr(a.attrs[k], f) {
			return false
		}
	}
	return true
}

// SameExpr reports whether a and b unparse identically — the equality
// behind (*Ad).Equal, the collector's "did this refresh change
// anything" and its wire deltas. Trees of the same shape are compared
// node by node without unparsing either, which decides the common case
// (a heartbeat re-sends what is stored); only trees that differ in
// shape are unparsed, since different trees can still print alike
// (the literal -1 and the negation of 1).
func SameExpr(a, b Expr) bool {
	return sameTree(a, b) || a.String() == b.String()
}

// sameTree reports that a and b are the same tree: true implies they
// unparse identically, false decides nothing.
func sameTree(a, b Expr) bool {
	switch x := a.(type) {
	case litExpr:
		y, ok := b.(litExpr)
		return ok && sameLiteral(x.v, y.v)
	case attrRef:
		y, ok := b.(attrRef)
		return ok && x == y
	case selectExpr:
		y, ok := b.(selectExpr)
		return ok && x.name == y.name && sameTree(x.base, y.base)
	case indexExpr:
		y, ok := b.(indexExpr)
		return ok && sameTree(x.base, y.base) && sameTree(x.index, y.index)
	case unaryExpr:
		y, ok := b.(unaryExpr)
		return ok && x.op == y.op && sameTree(x.arg, y.arg)
	case binaryExpr:
		y, ok := b.(binaryExpr)
		return ok && x.op == y.op && sameTree(x.l, y.l) && sameTree(x.r, y.r)
	case condExpr:
		y, ok := b.(condExpr)
		return ok && sameTree(x.cond, y.cond) && sameTree(x.then, y.then) && sameTree(x.els, y.els)
	case callExpr:
		y, ok := b.(callExpr)
		return ok && x.name == y.name && sameTrees(x.args, y.args)
	case listExpr:
		y, ok := b.(listExpr)
		return ok && sameTrees(x.elems, y.elems)
	case adExpr:
		y, ok := b.(adExpr)
		return ok && sameOrder(x.ad, y.ad) && x.ad.identical(y.ad)
	}
	return false
}

func sameTrees(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameTree(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameOrder reports that two nested ads list the same names in the
// same order and case, which their unparsed text shows.
func sameOrder(a, b *Ad) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, n := range a.Names() {
		if b.names[i] != n {
			return false
		}
	}
	return true
}

// sameLiteral reports that two literals print identically: the same
// type and payload. Zero and NaN reals are left to the text (-0.0
// prints its sign, NaN is not equal to itself).
func sameLiteral(v, w Value) bool {
	if v.typ != w.typ {
		return false
	}
	switch v.typ {
	case UndefinedType, ErrorType:
		return true
	case BooleanType, IntegerType:
		return v.num == w.num
	case RealType:
		return v.num == w.num && v.num != 0
	case StringType:
		return v.str == w.str
	case ListType:
		if len(v.list) != len(w.list) {
			return false
		}
		for i := range v.list {
			if !sameLiteral(v.list[i], w.list[i]) {
				return false
			}
		}
		return true
	case AdType:
		return sameOrder(v.ad, w.ad) && v.ad.identical(w.ad)
	}
	return false
}

// Equal reports whether a and b define the same attributes with
// expressions that unparse identically (a structural, not semantic,
// comparison). Published ads are immutable, so the common refresh —
// the same ad again — is decided by the pointer.
func (a *Ad) Equal(b *Ad) bool {
	switch {
	case a == b:
		return true
	case a == nil || b == nil:
		return false
	}
	return a.identical(b)
}

// String renders the ad in classad source syntax: a bracketed,
// semicolon-separated attribute list in insertion order.
func (a *Ad) String() string {
	if a == nil {
		return "[ ]"
	}
	var b strings.Builder
	b.WriteString("[ ")
	for i, n := range a.names {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(n)
		b.WriteString(" = ")
		b.WriteString(a.attrs[a.keys[i]].String())
	}
	b.WriteString(" ]")
	return b.String()
}

// Pretty renders the ad one attribute per line, indented, in the style
// of the paper's Figure 1.
func (a *Ad) Pretty() string {
	if a == nil {
		return "[\n]"
	}
	var b strings.Builder
	b.WriteString("[\n")
	for i, n := range a.names {
		fmt.Fprintf(&b, "    %s = %s;\n", n, a.attrs[a.keys[i]].String())
	}
	b.WriteString("]")
	return b.String()
}

// SortedNames returns the attribute names sorted case-insensitively,
// useful for deterministic digests.
func (a *Ad) SortedNames() []string {
	out := append([]string(nil), a.names...)
	sort.Slice(out, func(i, j int) bool { return Fold(out[i]) < Fold(out[j]) })
	return out
}
