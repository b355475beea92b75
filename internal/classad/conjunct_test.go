package classad

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// conjunctNames are the attributes the Conjuncts property draws on.
var conjunctNames = []string{"Memory", "Disk", "Arch", "KFlops"}

// conjunctName picks an attribute, in either case: references must
// resolve whatever spelling they use.
func conjunctName(r *rand.Rand) string {
	n := conjunctNames[r.Intn(len(conjunctNames))]
	if r.Intn(3) == 0 {
		n = strings.ToLower(n)
	}
	return n
}

// conjunctLit draws a literal from a domain small enough that a peer
// often holds exactly the value a bound names.
func conjunctLit(r *rand.Rand) Value {
	switch r.Intn(7) {
	case 0, 1:
		return Int(int64(r.Intn(4)))
	case 2:
		return Real(float64(r.Intn(6)) / 2)
	case 3:
		return Str([]string{"intel", "INTEL", "sparc"}[r.Intn(3)])
	case 4:
		return Bool(r.Intn(2) == 0)
	case 5:
		return Undef()
	default:
		return Erroneous("generated")
	}
}

// conjunctSelf builds the ad whose constraint is read. Each name is
// absent, a literal, or bound to an expression partial evaluation
// cannot fold — an other. reference, or arithmetic over an unqualified
// name the ad may not define (or that loops back to itself). The
// constraint is one to three comparisons of a reference in any scope
// with a literal or with a self. reference, in either operand order.
func conjunctSelf(r *rand.Rand) *Ad {
	ad := NewAd()
	for _, n := range conjunctNames {
		switch r.Intn(4) {
		case 1:
			ad.Set(n, Lit(conjunctLit(r)))
		case 2:
			ad.Set(n, OtherAttr(conjunctName(r)))
		case 3:
			ad.Set(n, NewBinary(OpAdd, Attr(conjunctName(r)), Lit(Int(1))))
		}
	}
	ops := []Op{OpLt, OpLe, OpGt, OpGe, OpEq, OpNe}
	var constraint Expr
	for i, k := 0, 1+r.Intn(3); i < k; i++ {
		var ref, other Expr
		switch n := conjunctName(r); r.Intn(3) {
		case 0:
			ref = Attr(n)
		case 1:
			ref = OtherAttr(n)
		default:
			ref = SelfAttr(n)
		}
		if r.Intn(4) == 0 {
			other = SelfAttr(conjunctName(r))
		} else {
			other = Lit(conjunctLit(r))
		}
		if r.Intn(2) == 0 {
			ref, other = other, ref
		}
		c := NewBinary(ops[r.Intn(len(ops))], ref, other)
		if constraint == nil {
			constraint = c
		} else {
			constraint = NewBinary(OpAnd, constraint, c)
		}
	}
	ad.Set(AttrConstraint, constraint)
	return ad
}

// conjunctPeer builds the candidate: each name absent or a literal.
func conjunctPeer(r *rand.Rand) *Ad {
	ad := NewAd()
	for _, n := range conjunctNames {
		if r.Intn(5) != 0 {
			ad.Set(n, Lit(conjunctLit(r)))
		}
	}
	return ad
}

// TestQuickConjunctsSound: a Bound says what its conjunct tests about
// the peer. Whenever the peer defines the bound's attribute as a
// literal, the conjunct as written is true against that peer exactly
// when the literal satisfies `Op Lit` under strict comparison — so a
// consumer that prunes, or proves a constraint unsatisfiable, from
// bounds alone never rules out a pair that matches.
func TestQuickConjunctsSound(t *testing.T) {
	env := FixedEnv(12345, 1)
	checked := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		self, peer := conjunctSelf(r), conjunctPeer(r)
		for _, c := range Conjuncts(self, env) {
			b := c.Bound
			if b == nil {
				continue
			}
			if b.Key != Fold(b.Name) {
				t.Errorf("seed %d: key %q for name %q", seed, b.Key, b.Name)
				return false
			}
			def, ok := peer.LookupKey(b.Key)
			if !ok || Inspect(def).Kind != KindLiteral {
				continue
			}
			checked++
			peerVal := Inspect(def).Value
			got := EvalExprAgainst(c.Expr, self, peer, env).IsTrue()
			want := EvalExprEnv(NewBinary(b.Op, Lit(peerVal), Lit(b.Lit)), nil, env).IsTrue()
			if got != want {
				t.Errorf("seed %d: conjunct %s is %v against peer %s, but bound %s %s %s says %v\nself: %s",
					seed, c.Expr, got, peer, b.Name, b.Op, b.Lit, want, self)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	if checked < 1000 {
		t.Fatalf("only %d bounds checked against a literal peer attribute: generator degenerated", checked)
	}
}
