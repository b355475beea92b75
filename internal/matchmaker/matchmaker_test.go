package matchmaker

import (
	"fmt"
	"testing"

	"repro/internal/classad"
)

// machine builds a provider ad with the given name and capability
// attributes.
func machine(name, arch string, memory int64) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Type", "Machine")
	ad.SetString("Name", name)
	ad.SetString("Arch", arch)
	ad.SetInt("Memory", memory)
	ad.Set("Constraint", classad.Lit(classad.Bool(true)))
	return ad
}

// job builds a request ad for owner with an arch requirement and a
// memory floor.
func job(owner, arch string, minMem int64) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Type", "Job")
	ad.SetString("Owner", owner)
	if err := ad.SetExprString("Constraint",
		fmt.Sprintf(`other.Arch == %q && other.Memory >= %d`, arch, minMem)); err != nil {
		panic(err)
	}
	return ad
}

func TestNegotiateBasicPairing(t *testing.T) {
	m := New(Config{})
	offers := []*classad.Ad{
		machine("a", "INTEL", 64),
		machine("b", "SPARC", 128),
	}
	requests := []*classad.Ad{
		job("u1", "INTEL", 32),
		job("u2", "SPARC", 64),
		job("u3", "ALPHA", 1), // no such machine
	}
	matches := m.Negotiate(requests, offers)
	if len(matches) != 2 {
		t.Fatalf("got %d matches, want 2", len(matches))
	}
	for _, match := range matches {
		res := classad.Match(match.Request, match.Offer)
		if !res.Matched {
			t.Errorf("negotiator produced an incompatible pair: %s / %s",
				match.Request, match.Offer)
		}
	}
}

func TestNegotiateEachOfferUsedOnce(t *testing.T) {
	m := New(Config{})
	offers := []*classad.Ad{machine("only", "INTEL", 64)}
	requests := []*classad.Ad{
		job("u1", "INTEL", 1),
		job("u2", "INTEL", 1),
	}
	matches := m.Negotiate(requests, offers)
	if len(matches) != 1 {
		t.Fatalf("one offer must serve one request per cycle; got %d matches", len(matches))
	}
}

func TestNegotiateRankSelection(t *testing.T) {
	// The request ranks big-memory machines higher; the matchmaker
	// must pick the highest-rank compatible offer (paper §3.2).
	small := machine("small", "INTEL", 32)
	big := machine("big", "INTEL", 256)
	mid := machine("mid", "INTEL", 128)
	req := job("u", "INTEL", 1)
	if err := req.SetExprString("Rank", "other.Memory"); err != nil {
		t.Fatal(err)
	}
	m := New(Config{})
	matches := m.Negotiate([]*classad.Ad{req}, []*classad.Ad{small, big, mid})
	if len(matches) != 1 {
		t.Fatalf("got %d matches", len(matches))
	}
	if name, _ := matches[0].Offer.Eval("Name").StringVal(); name != "big" {
		t.Errorf("picked %q, want the highest-ranked offer \"big\"", name)
	}
	if matches[0].RequestRank != 256 {
		t.Errorf("RequestRank = %v, want 256", matches[0].RequestRank)
	}
}

func TestNegotiateProviderRankBreaksTies(t *testing.T) {
	// Two offers the request ranks equally; the provider that ranks
	// the request higher wins the introduction (paper §3.2:
	// "breaking ties according to the provider's Rank value").
	eager := machine("eager", "INTEL", 64)
	if err := eager.SetExprString("Rank", "10"); err != nil {
		t.Fatal(err)
	}
	indifferent := machine("indifferent", "INTEL", 64)
	req := job("u", "INTEL", 1)
	m := New(Config{})
	matches := m.Negotiate([]*classad.Ad{req}, []*classad.Ad{indifferent, eager})
	if len(matches) != 1 {
		t.Fatalf("got %d matches", len(matches))
	}
	if name, _ := matches[0].Offer.Eval("Name").StringVal(); name != "eager" {
		t.Errorf("picked %q, want provider-rank tie-break winner \"eager\"", name)
	}
}

func TestNegotiateBilateral(t *testing.T) {
	// Providers constrain customers too — the paper's central
	// differentiator from conventional schedulers (§3).
	fussy := machine("fussy", "INTEL", 64)
	if err := fussy.SetExprString("Constraint", `other.Owner == "vip"`); err != nil {
		t.Fatal(err)
	}
	m := New(Config{})
	pleb := job("pleb", "INTEL", 1)
	vip := job("vip", "INTEL", 1)
	if got := m.Negotiate([]*classad.Ad{pleb}, []*classad.Ad{fussy}); len(got) != 0 {
		t.Errorf("provider constraint ignored: %d matches", len(got))
	}
	if got := m.Negotiate([]*classad.Ad{vip}, []*classad.Ad{fussy}); len(got) != 1 {
		t.Errorf("vip should match, got %d matches", len(got))
	}
}

func TestNegotiateFigureAds(t *testing.T) {
	m := New(Config{})
	matches := m.Negotiate(
		[]*classad.Ad{classad.Figure2()},
		[]*classad.Ad{classad.Figure1()},
	)
	if len(matches) != 1 {
		t.Fatalf("the paper's own figures must match; got %d", len(matches))
	}
	if matches[0].OfferRank != 10 {
		t.Errorf("machine ranks raman's job %v, want 10", matches[0].OfferRank)
	}
}

func TestNegotiateFirstFitAblation(t *testing.T) {
	// Rank maximization is what separates the matchmaker from
	// first-fit (the oracle's ablation), which takes the first
	// compatible offer in pool order even when a higher-ranked one
	// exists.
	small := machine("small", "INTEL", 32)
	big := machine("big", "INTEL", 256)
	req := job("u", "INTEL", 1)
	if err := req.SetExprString("Rank", "other.Memory"); err != nil {
		t.Fatal(err)
	}
	requests, offers := []*classad.Ad{req}, []*classad.Ad{small, big}
	matches := New(Config{}).Negotiate(requests, offers)
	if len(matches) != 1 || matches[0].Offer != big {
		t.Errorf("rank selection: got %v, want one match on \"big\"", matches)
	}
	firstFit := naiveNegotiate(Config{}, true, NewPriorityTable(), requests, offers)
	if len(firstFit) != 1 || firstFit[0].Offer != small {
		t.Errorf("first-fit: got %v, want one match on \"small\"", firstFit)
	}
}

func TestNegotiateEmptyInputs(t *testing.T) {
	m := New(Config{})
	if got := m.Negotiate(nil, nil); len(got) != 0 {
		t.Errorf("empty negotiate produced %d matches", len(got))
	}
	if got := m.Negotiate([]*classad.Ad{job("u", "INTEL", 1)}, nil); len(got) != 0 {
		t.Errorf("no offers but %d matches", len(got))
	}
	if got := m.Negotiate(nil, []*classad.Ad{machine("m", "INTEL", 64)}); len(got) != 0 {
		t.Errorf("no requests but %d matches", len(got))
	}
}

func TestNegotiateStateless(t *testing.T) {
	// Consecutive cycles with the same inputs give the same result;
	// nothing about a previous cycle's matches is remembered
	// (fair-share accounting aside, which is off here).
	m := New(Config{})
	offers := []*classad.Ad{machine("a", "INTEL", 64), machine("b", "INTEL", 64)}
	requests := []*classad.Ad{job("u1", "INTEL", 1), job("u2", "INTEL", 1)}
	first := m.Negotiate(requests, offers)
	second := m.Negotiate(requests, offers)
	if len(first) != len(second) {
		t.Fatalf("cycle results differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Offer != second[i].Offer || first[i].Request != second[i].Request {
			t.Errorf("match %d differs between identical cycles", i)
		}
	}
	// A brand-new matchmaker (simulating restart) agrees too — the
	// stateless-recovery property of E6 at the algorithm level.
	fresh := New(Config{}).Negotiate(requests, offers)
	if len(fresh) != len(first) {
		t.Errorf("restarted matchmaker found %d matches, want %d", len(fresh), len(first))
	}
}

func TestBestOffer(t *testing.T) {
	offers := []*classad.Ad{
		machine("a", "SPARC", 64),
		machine("b", "INTEL", 128),
		machine("c", "INTEL", 256),
	}
	req := job("u", "INTEL", 1)
	if err := req.SetExprString("Rank", "other.Memory"); err != nil {
		t.Fatal(err)
	}
	idx, match := BestOffer(req, offers, nil)
	if idx != 2 {
		t.Errorf("BestOffer = %d, want 2", idx)
	}
	if match.RequestRank != 256 {
		t.Errorf("rank = %v, want 256", match.RequestRank)
	}
	if idx, _ := BestOffer(job("u", "ALPHA", 1), offers, nil); idx != -1 {
		t.Errorf("impossible request matched offer %d", idx)
	}
}

func TestNegotiateDeterministicOrder(t *testing.T) {
	// Without fair share, requests are served in submission order, so
	// the first request gets the contested offer.
	m := New(Config{})
	offers := []*classad.Ad{machine("only", "INTEL", 64)}
	r1, r2 := job("first", "INTEL", 1), job("second", "INTEL", 1)
	matches := m.Negotiate([]*classad.Ad{r1, r2}, offers)
	if len(matches) != 1 || matches[0].Request != r1 {
		t.Errorf("submission order not respected")
	}
}
