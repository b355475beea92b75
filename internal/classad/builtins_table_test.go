package classad

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// builtinGrid is the argument grid the table is checked over: both
// non-values, a name no ad defines (which only a probing builtin tells
// from undefined), and each proper type with its edge cases.
func builtinGrid() (all, proper []Expr) {
	ad := NewAd()
	ad.Set("A", Lit(Int(1)))
	proper = []Expr{
		Lit(Bool(true)), Lit(Bool(false)),
		Lit(Int(0)), Lit(Int(-3)), Lit(Int(2)),
		Lit(Real(2.5)), Lit(Real(1e300)), Lit(Real(math.NaN())), Lit(Real(math.Inf(1))),
		Lit(Str("")), Lit(Str("abc")), Lit(Str("A")), Lit(Str("<")), Lit(Str("i")),
		NewList(Lit(Int(1)), Lit(Int(2))), NewList(Lit(Str("a")), Lit(Str("abc"))),
		NewAdExpr(ad),
	}
	all = append([]Expr{Lit(Undef()), Lit(Erroneous("boom")), Attr("Missing")}, proper...)
	return all, proper
}

// eachArgs calls f with every n-tuple over grid. f must not keep args.
func eachArgs(grid []Expr, n int, f func(args []Expr)) {
	args := make([]Expr, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			f(args)
			return
		}
		for _, e := range grid {
			args[i] = e
			rec(i + 1)
		}
	}
	rec(0)
}

// tableEnvs are two environments that differ in both clock and random
// stream, each answering the same on every call.
var tableEnvs = [2]*Env{
	{Now: func() int64 { return 1_000_000_000 }, Rand: func() float64 { return 0.25 }},
	{Now: func() int64 { return 1_000_050_000 }, Rand: func() float64 { return 0.75 }},
}

// callRow runs builtin name's code on args in tableEnvs[env], through
// the evaluator (checked, the argument count first) or straight into
// the implementation (unchecked). A panic is returned as an error.
func callRow(name string, args []Expr, env int, checked bool) (v Value, err error) {
	ctx := newCtx(NewAd(), nil, tableEnvs[env])
	defer ctx.done()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if checked {
		return newCall(name, args).eval(ctx), nil
	}
	b := builtins[name]
	return b.fn(ctx, b.Name, args), nil
}

// same reports whether two results print alike (NaN included).
func same(v, w Value) bool { return v.Type() == w.Type() && v.String() == w.String() }

// argList renders args as a call's parenthesised argument list.
func argList(args []Expr) string {
	return NewCall("f", args...).String()[1:]
}

// TestBuiltinTableAgreesWithEvaluator holds every row of the builtin
// table to its code. Each builtin is evaluated at every arity from 0
// to Max+1 (0 to 3 for a variadic one) over builtinGrid:
//   - an arity outside Min..Max is an error;
//   - a call inside it does not panic (Min is not below what the code
//     indexes), and its result's type is in Results;
//   - a pure row's result does not depend on the environment, and an
//     impure row's does somewhere.
//
// The code is also called past the row's range, unchecked, for the
// witnesses that the range is not narrower than the code: at Min-1 it
// must fail somewhere for want of an argument, and at Max+1 the extra
// argument must change nothing. At a fixed Max the last argument must
// change the result somewhere, or Max is wider than the code reads.
func TestBuiltinTableAgreesWithEvaluator(t *testing.T) {
	all, proper := builtinGrid()
	for _, name := range BuiltinNames() {
		b := builtins[name]
		if b.Max < 0 && b.Min != 0 || b.Max >= 0 && b.Max-b.Min != 0 && b.Max-b.Min != 1 {
			t.Errorf("%s: range %d..%d is not one the arity error can state", name, b.Min, b.Max)
		}
		top := b.Max + 1
		if b.Max < 0 {
			top = 3
		}
		for n := 0; n <= top; n++ {
			if n < b.Min || b.Max >= 0 && n > b.Max {
				eachArgs(proper[2:3], n, func(args []Expr) {
					if v, err := callRow(name, args, 0, true); err != nil || !v.IsError() {
						t.Errorf("%s%s = %v (%v), want an arity error", name, argList(args), v, err)
					}
				})
				continue
			}
			envMatters := false
			eachArgs(all, n, func(args []Expr) {
				v, err := callRow(name, args, 0, true)
				if err != nil {
					t.Errorf("%s%s: %v: Min %d is below what its code reads", name, argList(args), err, b.Min)
					return
				}
				if b.Results&(1<<v.Type()) == 0 {
					t.Errorf("%s%s = %v, of type %s, outside its declared results %s", name, argList(args), v, v.Type(), b.Results)
				}
				if w, _ := callRow(name, args, 1, true); !same(v, w) {
					envMatters = true
					if !b.Impure {
						t.Errorf("%s%s = %v in one environment and %v in another, yet it is declared pure", name, argList(args), v, w)
					}
				}
			})
			if b.Impure && !envMatters {
				t.Errorf("%s: declared impure, but %d argument(s) give the same results in two environments", name, n)
			}
		}
		if b.Min > 0 {
			failed := false
			eachArgs(all, b.Min-1, func(args []Expr) {
				if _, err := callRow(name, args, 0, false); err != nil {
					failed = true
				}
			})
			if !failed {
				t.Errorf("%s: its code runs on %d argument(s), yet Min is %d", name, b.Min-1, b.Min)
			}
		}
		if b.Max < 0 {
			continue
		}
		eachArgs(all, b.Max, func(args []Expr) {
			with := append(append([]Expr(nil), args...), proper[0])
			first, _ := callRow(name, with, 0, false)
			for _, x := range proper[1:] {
				with[b.Max] = x
				if v, _ := callRow(name, with, 0, false); !same(v, first) {
					t.Errorf("%s%s = %v, but %v with %s last: its code reads argument %d, yet Max is %d",
						name, argList(with), v, first, proper[0], b.Max+1, b.Max)
					return
				}
			}
		})
		if b.Max == 0 {
			continue
		}
		changes := false
		eachArgs(all, b.Max-1, func(args []Expr) {
			with := append(append([]Expr(nil), args...), all[0])
			first, _ := callRow(name, with, 0, true)
			for _, x := range all[1:] {
				with[b.Max-1] = x
				if v, _ := callRow(name, with, 0, true); !same(v, first) {
					changes = true
				}
			}
		})
		if !changes {
			t.Errorf("%s: argument %d never changes the result, yet Max is %d", name, b.Max, b.Max)
		}
	}
}

// TestArityAgreesWithEvaluator spot-checks that calls inside the
// declared arity range do not produce the evaluator's wrong-argument-
// count error, and calls outside it do.
func TestArityAgreesWithEvaluator(t *testing.T) {
	cases := []struct {
		src     string
		wantErr bool
	}{
		{`member(1, {1, 2})`, false},
		{`member(1)`, true},
		{`substr("abc", 1)`, false},
		{`substr("abc", 1, 2)`, false},
		{`substr("abc", 1, 2, 3)`, true},
		{`time()`, false},
		{`time(1)`, true},
		{`ifThenElse(true, 1, 2)`, false},
		{`ifThenElse(true, 1)`, true},
		{`min()`, false},
	}
	ad := NewAd()
	for _, tc := range cases {
		e := MustParseExpr(tc.src)
		v := EvalExprAgainst(e, ad, nil, nil)
		if got := v.IsError(); got != tc.wantErr {
			t.Errorf("%s: IsError = %v, want %v (value %s)", tc.src, got, tc.wantErr, v)
		}
	}
}

// TestLookupBuiltinFoldsCase mirrors the evaluator's case-insensitive
// function lookup.
func TestLookupBuiltinFoldsCase(t *testing.T) {
	for _, name := range []string{"Member", "MEMBER", "IfThenElse", "isUndefined"} {
		if _, ok := LookupBuiltin(name); !ok {
			t.Errorf("LookupBuiltin(%q) not found", name)
		}
	}
	if _, ok := LookupBuiltin("frobnicate"); ok {
		t.Error("LookupBuiltin(frobnicate) found")
	}
	if b, _ := LookupBuiltin("CurrentTime"); b.Name != "time" || !b.Impure {
		t.Errorf("LookupBuiltin(CurrentTime) = %+v, want the impure time row", b)
	}
}

// TestDesignDocBuiltinListInSync is a `make lint-codes` gate: the
// backquoted names of DESIGN.md §2's "Builtin functions" item are
// exactly the table's names.
func TestDesignDocBuiltinListInSync(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, item, ok := strings.Cut(string(raw), "* **Builtin functions**:")
	if !ok {
		t.Fatal(`no "* **Builtin functions**:" item in DESIGN.md`)
	}
	item, _, _ = strings.Cut(item, "\n* ")
	item, _, _ = strings.Cut(item, "One table")
	doc := map[string]bool{}
	for _, m := range regexp.MustCompile("`(\\w+)`").FindAllStringSubmatch(item, -1) {
		doc[Fold(m[1])] = true
	}
	for _, name := range BuiltinNames() {
		if !doc[name] {
			t.Errorf("builtin %s is missing from DESIGN.md §2's list", name)
		}
		delete(doc, name)
	}
	for name := range doc {
		t.Errorf("DESIGN.md §2 lists %s, which is no builtin", name)
	}
}
