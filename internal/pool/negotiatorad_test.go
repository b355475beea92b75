package pool

import (
	"math"
	"testing"

	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
)

// publishedUsage reads customer's usage from the Negotiator ad stored
// under name, whose Usage is a list of [ Customer; Usage ] records; ok
// is false when the list has no record for customer.
func publishedUsage(t *testing.T, st *collector.Store, name, customer string) (u float64, ok bool) {
	t.Helper()
	ad, found := st.Lookup(name)
	if !found {
		t.Fatalf("no ad named %s in the store", name)
	}
	records, isList := ad.Eval("Usage").ListVal()
	if !isList {
		t.Fatalf("%s: Usage = %v, want a list", name, ad.Eval("Usage"))
	}
	for _, r := range records {
		rec, _ := r.AdVal()
		if c, _ := rec.Eval("Customer").StringVal(); c == customer {
			u, _ := rec.Eval("Usage").NumberVal()
			return u, true
		}
	}
	return 0, false
}

// TestNegotiatorPublishesItself: after a cycle, the manager's own
// classad is in the store, carrying cycle statistics and the
// fair-share table — queryable like any other entity (paper §4).
func TestNegotiatorPublishesItself(t *testing.T) {
	env, _ := poolClock(5_000)
	mgr := NewManager(ManagerConfig{
		Env:        env,
		Matchmaker: matchmaker.Config{FairShare: true},
		Logf:       t.Logf,
	})
	machine := figure1Machine()
	machine.SetString(classad.AttrTicket, "t")
	if err := mgr.Store().Update(machine, 0); err != nil {
		t.Fatal(err)
	}
	job := classad.Figure2()
	job.SetString(classad.AttrName, "raman/job1")
	if err := mgr.Store().Update(job, 0); err != nil {
		t.Fatal(err)
	}
	// Usage is charged on claim acknowledgment, not match emission —
	// and this pool has no reachable CA, so seed the table directly to
	// exercise its publication.
	mgr.Usage().Record("raman", 1)
	res := mgr.RunCycle()
	if len(res.Matches) != 1 {
		t.Fatalf("cycle: %+v", res)
	}
	if res.Charged != 0 {
		t.Fatalf("Charged = %d on a cycle with no acknowledged claim", res.Charged)
	}

	// The negotiator ad answers a one-way query.
	q := classad.MustParse(`[ Constraint = other.Type == "Negotiator" ]`)
	got := mgr.Store().Query(q)
	if len(got) != 1 {
		t.Fatalf("negotiator ads = %d", len(got))
	}
	ad := got[0]
	if c, _ := ad.Eval("Cycle").IntVal(); c != 1 {
		t.Errorf("Cycle = %d", c)
	}
	if n, _ := ad.Eval("LastMatches").IntVal(); n != 1 {
		t.Errorf("LastMatches = %d", n)
	}
	if n, _ := ad.Eval("LastOffers").IntVal(); n != 1 {
		t.Errorf("LastOffers = %d", n)
	}
	// The fair-share table rides along as a list of records, stamped
	// with the pool clock it is decayed to.
	if u, _ := publishedUsage(t, mgr.Store(), "negotiator@pool", "raman"); u != 1 {
		t.Errorf("raman's published usage = %v", u)
	}
	if asOf := ad.Eval("UsageAsOf").RankVal(); asOf != 5_000 {
		t.Errorf("UsageAsOf = %v, want the pool clock 5000", asOf)
	}
	// Expression access works end to end.
	v, err := classad.EvalString(`Usage[0].Customer == "raman" ? Usage[0].Usage : -1`, ad)
	if err != nil {
		t.Fatal(err)
	}
	if v.RankVal() != 1 {
		t.Errorf("Usage[0].Usage = %v", v)
	}
}

// TestUsageDecaysOnPoolClock: the fair-share table follows the pool
// clock, so one half-life after a charge a running manager reads half
// of it, and publishes that half under the clock it decayed to.
func TestUsageDecaysOnPoolClock(t *testing.T) {
	env, clock := poolClock(10_000)
	mgr := NewManager(ManagerConfig{Env: env, Logf: t.Logf})
	t.Cleanup(mgr.Close)
	mgr.Usage().Record("raman", 1)
	mgr.RunCycle()
	clock.Add(matchmaker.DefaultHalfLife)
	mgr.RunCycle()
	if u := mgr.Usage().Effective("raman"); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("usage one half-life after the charge = %v, want 0.5", u)
	}
	u, _ := publishedUsage(t, mgr.Store(), "negotiator@pool", "raman")
	ad, _ := mgr.Store().Lookup("negotiator@pool")
	if asOf := ad.Eval("UsageAsOf").RankVal(); math.Abs(u-0.5) > 1e-9 || asOf != float64(clock.Load()) {
		t.Errorf("published usage %v as of %v, want 0.5 as of %d", u, asOf, clock.Load())
	}
}

// TestNegotiatorAdNeverMatchesJobs: the manager's own ad must not be
// handed out as an offer, even to constraint-free requests.
func TestNegotiatorAdNeverMatchesJobs(t *testing.T) {
	mgr := NewManager(ManagerConfig{Logf: t.Logf})
	mgr.RunCycle() // publishes the negotiator ad into an empty store
	greedy := classad.NewAd()
	greedy.SetString(classad.AttrType, "Job")
	greedy.SetString(classad.AttrName, "u/job1")
	greedy.SetString(classad.AttrOwner, "u")
	// No constraint: accepts anything offered.
	if err := mgr.Store().Update(greedy, 0); err != nil {
		t.Fatal(err)
	}
	res := mgr.RunCycle()
	if res.Offers != 0 {
		t.Errorf("offers = %d, the negotiator ad leaked into negotiation", res.Offers)
	}
	if len(res.Matches) != 0 {
		t.Errorf("the job matched %d offers", len(res.Matches))
	}
}
