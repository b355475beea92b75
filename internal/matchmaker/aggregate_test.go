package matchmaker

import (
	"fmt"
	"testing"

	"repro/internal/classad"
)

// regularPool builds n offers spread over k distinct machine classes;
// names differ within a class but capabilities are identical.
func regularPool(n, k int) []*classad.Ad {
	out := make([]*classad.Ad, n)
	for i := range out {
		class := i % k
		m := machine(fmt.Sprintf("node%d", i), "INTEL", int64(32*(class+1)))
		m.SetInt("Class", int64(class))
		out[i] = m
	}
	return out
}

func TestSignatureIgnoresIdentity(t *testing.T) {
	a := machine("alpha", "INTEL", 64)
	b := machine("beta", "INTEL", 64)
	c := machine("gamma", "SPARC", 64)
	if Signature(a) != Signature(b) {
		t.Error("identical machines with different names must share a signature")
	}
	if Signature(a) == Signature(c) {
		t.Error("different architectures must not share a signature")
	}
	// Contact and ticket are identity attributes too.
	d := machine("alpha", "INTEL", 64)
	d.SetString(classad.AttrContact, "host:1234")
	d.SetString(classad.AttrTicket, "deadbeef")
	if Signature(a) != Signature(d) {
		t.Error("contact/ticket must not affect the signature")
	}
}

func TestSignatureCaseInsensitive(t *testing.T) {
	a := classad.MustParse("[ Memory = 64 ]")
	b := classad.MustParse("[ MEMORY = 64 ]")
	if Signature(a) != Signature(b) {
		t.Error("attribute case must not affect the signature")
	}
}

func TestAggregateClasses(t *testing.T) {
	offers := regularPool(100, 4)
	classes := AggregateClasses(offers)
	if len(classes) != 4 {
		t.Fatalf("got %d classes, want 4", len(classes))
	}
	total := 0
	for _, c := range classes {
		total += len(c)
	}
	if total != 100 {
		t.Errorf("classes cover %d offers, want 100", total)
	}
}

// TestAggregationMatchesLinearScan is the soundness half of E11: with
// aggregation on, every request gets the offer, at the rank, the
// unaggregated scan would pick.
func TestAggregationMatchesLinearScan(t *testing.T) {
	var ranked []*classad.Ad
	for i := 0; i < 40; i++ {
		r := job(fmt.Sprintf("u%d", i%5), "INTEL", int64(32*(i%3+1)))
		if err := r.SetExprString("Rank", "other.Memory"); err != nil {
			t.Fatal(err)
		}
		ranked = append(ranked, r)
	}
	cases := []struct {
		name             string
		requests, offers []*classad.Ad
	}{
		{"value-regular pool", ranked, regularPool(60, 3)},
		// Two machines identical but for Name: dropping Name from the
		// signature would let "a" speak for "b" and lose the match.
		{"constraint reads an identity attribute",
			[]*classad.Ad{mustAd(t, `[ Type = "Job"; Owner = "u"; Constraint = other.Name == "b" ]`)},
			[]*classad.Ad{machine("a", "INTEL", 64), machine("b", "INTEL", 64)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := New(Config{}).Negotiate(tc.requests, tc.offers)
			agg := New(Config{Aggregate: true}).Negotiate(tc.requests, tc.offers)
			if len(plain) == 0 || len(plain) != len(agg) {
				t.Fatalf("aggregation changed match count: %d vs %d", len(agg), len(plain))
			}
			for i := range plain {
				if plain[i] != agg[i] {
					t.Errorf("match %d differs: %+v vs %+v", i, plain[i], agg[i])
				}
			}
		})
	}
}

// TestAggregationExhaustsClasses: when a class runs out, later
// requests fall through to other classes rather than failing.
func TestAggregationExhaustsClasses(t *testing.T) {
	offers := regularPool(6, 3) // 2 offers per class
	var requests []*classad.Ad
	for i := 0; i < 6; i++ {
		requests = append(requests, job(fmt.Sprintf("u%d", i), "INTEL", 1))
	}
	matches := New(Config{Aggregate: true}).Negotiate(requests, offers)
	if len(matches) != 6 {
		t.Fatalf("got %d matches, want all 6 offers consumed", len(matches))
	}
	seen := map[*classad.Ad]bool{}
	for _, m := range matches {
		if seen[m.Offer] {
			t.Error("an offer was introduced twice in one cycle")
		}
		seen[m.Offer] = true
	}
}

// TestAggregationBatchOfIdenticalJobs: request-side memoization — a
// batch of identical jobs (differing only in JobId/QDate) produces the
// same matches as the linear scan, while evaluating constraints only
// once per (request class, offer class) pair.
func TestAggregationBatchOfIdenticalJobs(t *testing.T) {
	offers := regularPool(40, 4)
	var requests []*classad.Ad
	for i := 0; i < 30; i++ {
		r := job("u", "INTEL", 32)
		r.SetInt("JobId", int64(i+1))
		r.SetInt("QDate", int64(1000+i))
		if err := r.SetExprString("Rank", "other.Memory"); err != nil {
			t.Fatal(err)
		}
		requests = append(requests, r)
	}
	// All 30 share a signature despite distinct JobIds.
	sig := Signature(requests[0])
	for _, r := range requests {
		if Signature(r) != sig {
			t.Fatal("batch jobs do not share a signature")
		}
	}
	plain := New(Config{}).Negotiate(requests, offers)
	agg := New(Config{Aggregate: true}).Negotiate(requests, offers)
	if len(plain) != len(agg) || len(plain) != 30 {
		t.Fatalf("counts: plain=%d agg=%d", len(plain), len(agg))
	}
	for i := range plain {
		if plain[i].Request != agg[i].Request || plain[i].Offer != agg[i].Offer {
			t.Errorf("match %d differs: %v vs %v", i,
				nameOfAd(plain[i].Offer), nameOfAd(agg[i].Offer))
		}
	}
}

func nameOfAd(ad *classad.Ad) string {
	s, _ := ad.Eval("Name").StringVal()
	return s
}

func TestAggregationHeterogeneousPoolDegenerates(t *testing.T) {
	// Zero value regularity: every machine unique; aggregation must
	// still be correct (one class per offer).
	var offers []*classad.Ad
	for i := 0; i < 20; i++ {
		offers = append(offers, machine(fmt.Sprintf("n%d", i), "INTEL", int64(i+1)))
	}
	classes := AggregateClasses(offers)
	if len(classes) != 20 {
		t.Errorf("got %d classes, want 20", len(classes))
	}
	req := job("u", "INTEL", 15)
	matches := New(Config{Aggregate: true}).Negotiate([]*classad.Ad{req}, offers)
	if len(matches) != 1 {
		t.Fatalf("got %d matches", len(matches))
	}
	if mem, _ := matches[0].Offer.Eval("Memory").IntVal(); mem < 15 {
		t.Errorf("matched machine with %d MB, constraint requires >= 15", mem)
	}
}
