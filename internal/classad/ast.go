package classad

import (
	"fmt"
	"strings"
)

// Expr is a parsed classad expression. Expressions are immutable after
// construction and safe for concurrent evaluation.
type Expr interface {
	// String renders the expression in classad source syntax such
	// that parsing the result yields an equivalent expression.
	String() string
	// eval computes the expression's value in ctx.
	eval(ctx evalCtx) Value
}

// Op identifies an operator in the expression grammar.
type Op int

// Operators, in no particular order. Precedence lives in the parser.
const (
	OpOr   Op = iota // ||
	OpAnd            // &&
	OpIs             // is   (non-strict identity)
	OpIsnt           // isnt (non-strict negated identity)
	OpLt             // <
	OpLe             // <=
	OpGt             // >
	OpGe             // >=
	OpEq             // ==
	OpNe             // !=
	OpAdd            // +
	OpSub            // -
	OpMul            // *
	OpDiv            // /
	OpMod            // %
	OpNot            // unary !
	OpNeg            // unary -
	OpPlus           // unary +
)

var opNames = map[Op]string{
	OpOr: "||", OpAnd: "&&", OpIs: "is", OpIsnt: "isnt",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpEq: "==", OpNe: "!=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpNot: "!", OpNeg: "-", OpPlus: "+",
}

// String returns the source spelling of the operator.
func (o Op) String() string { return opNames[o] }

// litExpr is a literal value.
type litExpr struct{ v Value }

// Lit returns an expression that evaluates to v.
func Lit(v Value) Expr { return litExpr{v} }

func (e litExpr) String() string { return e.v.String() }

// Scope qualifies an attribute reference.
type Scope int

// Reference scopes. An unqualified reference resolves in the
// containing ad first and, during two-way matching, falls back to the
// other ad — the behaviour required to make the paper's Figure 2
// evaluate (its Constraint mentions Arch, defined only in the machine
// ad).
const (
	ScopeNone  Scope = iota // unqualified
	ScopeSelf               // self.name (the paper also spells it my.)
	ScopeOther              // other.name (Condor spells it target.)
)

// attrRef is an attribute reference, possibly scope-qualified. key is
// the folded name, computed once at construction: evaluation looks
// attributes up by it and never folds.
type attrRef struct {
	scope Scope
	name  string
	key   string
}

func newAttrRef(scope Scope, name string) attrRef {
	return attrRef{scope, name, foldKey(name)}
}

// Attr returns an unqualified attribute reference expression.
func Attr(name string) Expr { return newAttrRef(ScopeNone, name) }

// SelfAttr returns a self-scoped attribute reference expression.
func SelfAttr(name string) Expr { return newAttrRef(ScopeSelf, name) }

// OtherAttr returns an other-scoped attribute reference expression.
func OtherAttr(name string) Expr { return newAttrRef(ScopeOther, name) }

func (e attrRef) String() string {
	switch e.scope {
	case ScopeSelf:
		return "self." + e.name
	case ScopeOther:
		return "other." + e.name
	default:
		return e.name
	}
}

// selectExpr is record attribute selection: base.name, with the
// folded name in key.
type selectExpr struct {
	base Expr
	name string
	key  string
}

func newSelect(base Expr, name string) selectExpr {
	return selectExpr{base, name, foldKey(name)}
}

// String parenthesises a numeric-literal base: `0.A` would lex as the
// real `0.` and a stray A, and `-1.A` as a negation of the selection.
func (e selectExpr) String() string {
	if lit, ok := e.base.(litExpr); ok {
		if _, ok := lit.v.NumberVal(); ok {
			return fmt.Sprintf("(%s).%s", lit, e.name)
		}
	}
	return fmt.Sprintf("%s.%s", parenthesize(e.base), e.name)
}

// indexExpr is list/record subscripting: base[index].
type indexExpr struct {
	base  Expr
	index Expr
}

func (e indexExpr) String() string {
	return fmt.Sprintf("%s[%s]", parenthesize(e.base), e.index)
}

// unaryExpr applies a unary operator.
type unaryExpr struct {
	op  Op
	arg Expr
}

func (e unaryExpr) String() string {
	return e.op.String() + parenthesize(e.arg)
}

// binaryExpr applies a binary operator.
type binaryExpr struct {
	op   Op
	l, r Expr
}

func (e binaryExpr) String() string {
	return fmt.Sprintf("%s %s %s", parenthesize(e.l), e.op, parenthesize(e.r))
}

// condExpr is the ternary conditional c ? t : f.
type condExpr struct {
	cond, then, els Expr
}

func (e condExpr) String() string {
	return fmt.Sprintf("%s ? %s : %s",
		parenthesize(e.cond), parenthesize(e.then), parenthesize(e.els))
}

// callExpr is a builtin function call.
type callExpr struct {
	name string // defining case, for printing
	key  string // folded, for the builtins table
	args []Expr
}

func newCall(name string, args []Expr) callExpr {
	return callExpr{name, foldKey(name), args}
}

func (e callExpr) String() string {
	var b strings.Builder
	b.WriteString(e.name)
	b.WriteByte('(')
	for i, a := range e.args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

// listExpr is a list constructor { e1, e2, ... }. When every element
// is a literal the list is a constant, and lit holds it from
// construction (nil otherwise): evaluating { "raman", "miron" } for
// each member() test then builds nothing. The value is shared, which
// ListVal's contract (do not modify) already allows.
type listExpr struct {
	elems []Expr
	lit   []Value
}

func newList(elems []Expr) listExpr {
	lit := make([]Value, len(elems))
	for i, el := range elems {
		l, ok := el.(litExpr)
		if !ok {
			return listExpr{elems: elems}
		}
		lit[i] = l.v
	}
	return listExpr{elems, lit}
}

func (e listExpr) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, el := range e.elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(el.String())
	}
	b.WriteByte('}')
	return b.String()
}

// adExpr is a nested classad constructor [ a = e; ... ].
type adExpr struct{ ad *Ad }

func (e adExpr) String() string { return e.ad.String() }

// parenthesize wraps composite sub-expressions in parentheses so that
// the unparsed form re-parses with the same structure regardless of
// the original precedence context.
func parenthesize(e Expr) string {
	switch e.(type) {
	case litExpr, attrRef, callExpr, listExpr, adExpr, selectExpr, indexExpr:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// NewList constructs a list expression from element expressions.
func NewList(elems ...Expr) Expr { return newList(elems) }

// NewAdExpr wraps an ad as a nested-classad expression.
func NewAdExpr(ad *Ad) Expr { return adExpr{ad} }

// NewCall constructs a call to a builtin function. The name is
// resolved case-insensitively at evaluation time; an unknown function
// evaluates to error.
func NewCall(name string, args ...Expr) Expr { return newCall(name, args) }

// NewBinary constructs a binary operator application.
func NewBinary(op Op, l, r Expr) Expr { return binaryExpr{op, l, r} }

// NewUnary constructs a unary operator application. Negation of a
// numeric literal folds to a literal, mirroring the parser, so that
// construction and parsing yield identical trees (and identical
// unparsed text).
func NewUnary(op Op, arg Expr) Expr {
	if op == OpNeg {
		if lit, ok := arg.(litExpr); ok {
			if i, ok := lit.v.IntVal(); ok {
				return litExpr{Int(-i)}
			}
			if r, ok := lit.v.RealVal(); ok {
				return litExpr{Real(-r)}
			}
		}
	}
	return unaryExpr{op, arg}
}

// NewCond constructs a conditional expression cond ? then : els.
func NewCond(cond, then, els Expr) Expr { return condExpr{cond, then, els} }
