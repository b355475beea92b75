package classad

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseUnparse: whatever parses — as an expression, a stream of
// bracketed ads, or one ad in either form — unparses to text that
// parses again and unparses to the same text, and nothing panics on
// the way. The wire protocol and the store's journal both carry ads as
// unparsed text, so a second parse must not drift. The corpus starts
// from every ad the repository ships, plus the selections from numeric
// literals the fuzzer once found printed as text that does not parse.
func FuzzParseUnparse(f *testing.F) {
	for _, src := range seedAds(f,
		"../../testdata/*.ad",
		"../../testdata/lint/*.ad",
		"../../testdata/lint/*/*.ad",
		"../../examples/ads/*.ad",
	) {
		f.Add(src)
	}
	for _, src := range []string{"0 .A", "0 .\xe4", "(-1).A"} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if e, err := ParseExpr(src); err == nil {
			unparseFixpoint(t, src, e, ParseExpr)
		}
		ads, err := ParseMulti(src)
		if err != nil {
			ad, err := Parse(src)
			if err != nil {
				return
			}
			ads = []*Ad{ad}
		}
		for _, ad := range ads {
			unparseFixpoint(t, src, ad, Parse)
		}
	})
}

// unparseFixpoint checks that v's text parses back to something with
// the same text.
func unparseFixpoint[T fmt.Stringer](t *testing.T, src string, v T, parse func(string) (T, error)) {
	t.Helper()
	text := v.String()
	back, err := parse(text)
	if err != nil {
		t.Fatalf("%q unparses to %q, which does not parse: %v", src, text, err)
	}
	if again := back.String(); again != text {
		t.Fatalf("%q unparses to %q, which unparses to %q", src, text, again)
	}
}

// FuzzEvalMatch: for any two ads, matching them and evaluating every
// attribute of each against the other never panics and always yields
// one of the value kinds of §3.1; two goroutines evaluating the same
// pair at once get the same results (evaluation state is recycled
// between evaluations, so this is what would catch two of them sharing
// it); and SameExpr never calls two attribute definitions the same
// when their text differs (it compares trees, and the collector's
// change detection trusts it). The corpus pairs every ad the
// repository ships with every other.
func FuzzEvalMatch(f *testing.F) {
	srcs := seedAds(f, "../../testdata/*.ad", "../../examples/ads/*.ad")
	for _, a := range srcs {
		for _, b := range srcs {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, leftSrc, rightSrc string) {
		left, err := Parse(leftSrc)
		if err != nil {
			return
		}
		right, err := Parse(rightSrc)
		if err != nil {
			return
		}
		// time() and random() are the only inputs besides the ads; fixed
		// and stateless, they give both goroutines the same ones.
		env := &Env{Now: func() int64 { return 1e9 }, Rand: func() float64 { return 0.5 }}
		want := evalPair(t, left, right, env)
		done := make(chan []string)
		for range 2 {
			go func() { done <- evalPair(t, left, right, env) }()
		}
		for range 2 {
			if got := <-done; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("concurrent evaluation of %q against %q:\n got %q\nwant %q", leftSrc, rightSrc, got, want)
			}
		}
		for _, a := range []*Ad{left, right} {
			for _, b := range []*Ad{left, right} {
				for _, an := range a.Names() {
					ae, _ := a.Lookup(an)
					for _, bn := range b.Names() {
						be, _ := b.Lookup(bn)
						if SameExpr(ae, be) && ae.String() != be.String() {
							t.Fatalf("SameExpr(%s, %s) but their text differs", ae, be)
						}
					}
				}
			}
		}
	})
}

// evalPair matches left with right and evaluates every attribute of
// each against the other, returning the results as text. A result of
// a kind outside §3.1's is reported through t.
func evalPair(t *testing.T, left, right *Ad, env *Env) []string {
	m := MatchEnv(left, right, env)
	out := []string{fmt.Sprint(m)}
	for _, pair := range [][2]*Ad{{left, right}, {right, left}} {
		self, other := pair[0], pair[1]
		for _, name := range self.Names() {
			v := self.EvalAgainst(name, other, env)
			if !isValueKind(v) {
				t.Errorf("%s evaluates to %#v, not a §3.1 value", name, v)
			}
			out = append(out, v.Type().String()+" "+v.String()+" "+v.ErrMessage())
		}
	}
	return out
}

// isValueKind reports that v, and every element of a list v, is one of
// the eight kinds of §3.1.
func isValueKind(v Value) bool {
	switch v.Type() {
	case UndefinedType, ErrorType, BooleanType, IntegerType, RealType, StringType, AdType:
		return true
	case ListType:
		list, _ := v.ListVal()
		for _, el := range list {
			if !isValueKind(el) {
				return false
			}
		}
		return true
	}
	return false
}

// seedAds reads the files the patterns match, for a fuzz corpus.
func seedAds(f *testing.F, patterns ...string) []string {
	var srcs []string
	for _, pattern := range patterns {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			srcs = append(srcs, string(src))
		}
	}
	return srcs
}
