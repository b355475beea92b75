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

// sameMatches reports where got and the oracle's want differ.
func sameMatches(t *testing.T, got, want []Match) {
	t.Helper()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("got %d matches, the oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("match %d differs: %+v vs the oracle's %+v", i, got[i], want[i])
		}
	}
}

// TestGroupMatchingMatchesLinearScan is the soundness half of E11:
// passing over the twins that lose to a run's match, every request
// still gets the offer, at the rank, the linear scan would pick.
func TestGroupMatchingMatchesLinearScan(t *testing.T) {
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
		// Two machines identical but for Name: a skip that trusted "a"
		// to speak for "b" would lose the match.
		{"constraint reads an identity attribute",
			[]*classad.Ad{mustAd(t, `[ Type = "Job"; Owner = "u"; Constraint = other.Name == "b" ]`)},
			[]*classad.Ad{machine("a", "INTEL", 64), machine("b", "INTEL", 64)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sameMatches(t, New(Config{}).Negotiate(tc.requests, tc.offers), naiveMatches(Config{}, tc.requests, tc.offers))
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
	matches := New(Config{}).Negotiate(requests, offers)
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

// TestAggregationBatchOfIdenticalJobs: a batch of identical jobs
// (differing only in JobId/QDate) gets the linear scan's matches while
// trying one pair per job: the first free twin of the best class wins
// its run, and every later twin loses to it on position untried.
func TestAggregationBatchOfIdenticalJobs(t *testing.T) {
	offers := regularPool(40, 4)
	var requests []*classad.Ad
	eng := NewIncremental(New(Config{}))
	for i, off := range offers {
		eng.Apply(AdDelta{Kind: AdOffer, Key: sliceKey('o', i), Ad: off})
	}
	for i := 0; i < 30; i++ {
		r := job("u", "INTEL", 32)
		r.SetInt("JobId", int64(i+1))
		r.SetInt("QDate", int64(1000+i))
		if err := r.SetExprString("Rank", "other.Memory"); err != nil {
			t.Fatal(err)
		}
		requests = append(requests, r)
		eng.Apply(AdDelta{Kind: AdRequest, Key: sliceKey('r', i), Ad: r})
	}
	sameMatches(t, New(Config{}).Negotiate(requests, offers), naiveMatches(Config{}, requests, offers))
	if _, stats := eng.Recompute(); stats.Evals != len(requests) {
		t.Errorf("the batch tried %d pairs, want one per job (%d)", stats.Evals, len(requests))
	}
}

func TestAggregationHeterogeneousPoolDegenerates(t *testing.T) {
	// Zero value regularity: every machine unique, no run to pass over;
	// matching must still be correct.
	var offers []*classad.Ad
	for i := 0; i < 20; i++ {
		offers = append(offers, machine(fmt.Sprintf("n%d", i), "INTEL", int64(i+1)))
	}
	req := job("u", "INTEL", 15)
	matches := New(Config{}).Negotiate([]*classad.Ad{req}, offers)
	if len(matches) != 1 {
		t.Fatalf("got %d matches", len(matches))
	}
	if mem, _ := matches[0].Offer.Eval("Memory").IntVal(); mem < 15 {
		t.Errorf("matched machine with %d MB, constraint requires >= 15", mem)
	}
}
