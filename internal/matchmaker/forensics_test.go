package matchmaker

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/classad"
	"repro/internal/obs"
)

// named stamps a Name on a test ad so forensics can key it.
func named(ad *classad.Ad, name string) *classad.Ad {
	ad.SetString("Name", name)
	return ad
}

func TestForensicsStoreBounds(t *testing.T) {
	f := NewForensics()
	for i := 0; i < maxForensicsReports+10; i++ {
		f.record(Report{Request: fmt.Sprintf("req%d", i)})
	}
	if got := len(f.Requests()); got != maxForensicsReports {
		t.Fatalf("store holds %d reports, want cap %d", got, maxForensicsReports)
	}
	if _, ok := f.Lookup("req0"); ok {
		t.Fatal("oldest report survived FIFO eviction")
	}
	if _, ok := f.Lookup("REQ42"); !ok {
		t.Fatal("lookup is not case-folded")
	}
	// Re-recording overwrites in place, no extra slot.
	f.record(Report{Request: "req42", Cycle: "c2"})
	if got := len(f.Requests()); got != maxForensicsReports {
		t.Fatalf("overwrite grew the store to %d", got)
	}
	if r, _ := f.Lookup("req42"); r.Cycle != "c2" {
		t.Fatalf("overwrite lost: %+v", r)
	}

	var nilF *Forensics
	nilF.record(Report{Request: "x"})
	if _, ok := nilF.Lookup("x"); ok || nilF.Requests() != nil {
		t.Fatal("nil forensics is not a no-op")
	}
}

func TestForensicsConstraintFailedNamesConjunct(t *testing.T) {
	m := New(Config{})
	m.Instrument(obs.New())
	offers := []*classad.Ad{named(machine("m1", "INTEL", 32), "m1")}
	// The failing conjunct is one the offer index cannot decide (an
	// indexable one is reported as index-pruned, tested below), so the
	// offer reaches the scan and fails bilateral evaluation.
	req := named(job("alice", "INTEL", 1), "alice/job1")
	if err := req.SetExprString("Constraint", `other.Arch == "INTEL" && other.Memory / 2 >= 32`); err != nil {
		t.Fatal(err)
	}
	if got := negotiateAs(m, "c-1", []*classad.Ad{req}, offers); len(got) != 0 {
		t.Fatalf("unexpected match: %+v", got)
	}
	r, ok := m.Forensics().Lookup("alice/job1")
	if !ok {
		t.Fatal("no report recorded")
	}
	if r.Matched || r.Reason != ReasonConstraintFailed {
		t.Fatalf("report = %+v, want unmatched constraint-failed", r)
	}
	if len(r.Ledger) != 1 || r.Ledger[0].Outcome != VerdictConstraintFailed {
		t.Fatalf("ledger = %+v", r.Ledger)
	}
	if !strings.Contains(r.Ledger[0].Detail, "(other.Memory / 2) >= 32") {
		t.Fatalf("detail %q does not name the failing conjunct", r.Ledger[0].Detail)
	}
}

func TestForensicsOutrankedNamesWinner(t *testing.T) {
	m := New(Config{})
	m.Instrument(obs.New())
	offers := []*classad.Ad{named(machine("m1", "INTEL", 64), "m1")}
	requests := []*classad.Ad{
		named(job("alice", "INTEL", 32), "alice/job1"),
		named(job("bob", "INTEL", 32), "bob/job1"),
	}
	if got := negotiateAs(m, "c-1", requests, offers); len(got) != 1 {
		t.Fatalf("got %d matches, want 1", len(got))
	}
	winner := adName(requests[0])
	loser := "bob/job1"
	if r, _ := m.Forensics().Lookup(winner); !r.Matched {
		// Priority order may pick either owner first; find the loser.
		winner, loser = loser, winner
	}
	r, ok := m.Forensics().Lookup(loser)
	if !ok {
		t.Fatal("no report for the outranked request")
	}
	if r.Matched || r.Reason != ReasonOutranked {
		t.Fatalf("report = %+v, want outranked", r)
	}
	if len(r.Ledger) != 1 || r.Ledger[0].Outcome != VerdictOutranked {
		t.Fatalf("ledger = %+v", r.Ledger)
	}
	if want := "taken by " + winner; r.Ledger[0].Detail != want {
		t.Fatalf("detail = %q, want %q", r.Ledger[0].Detail, want)
	}
}

func TestForensicsIndexPruned(t *testing.T) {
	m := New(Config{})
	m.Instrument(obs.New())
	offers := []*classad.Ad{named(machine("m1", "SPARC", 64), "m1")}
	req := named(job("alice", "INTEL", 32), "alice/job1")
	if got := negotiateAs(m, "c-1", []*classad.Ad{req}, offers); len(got) != 0 {
		t.Fatalf("unexpected match: %+v", got)
	}
	r, ok := m.Forensics().Lookup("alice/job1")
	if !ok {
		t.Fatal("no report recorded")
	}
	if len(r.Ledger) != 1 || r.Ledger[0].Outcome != VerdictIndexPruned {
		t.Fatalf("ledger = %+v, want index-pruned", r.Ledger)
	}
	if !strings.Contains(r.Ledger[0].Detail, "posting list") {
		t.Fatalf("detail %q does not name the posting list", r.Ledger[0].Detail)
	}
}

func TestForensicsLedgerTruncates(t *testing.T) {
	m := New(Config{})
	m.Instrument(obs.New())
	var offers []*classad.Ad
	for i := 0; i < maxLedgerEntries+8; i++ {
		name := fmt.Sprintf("m%d", i)
		offers = append(offers, named(machine(name, "SPARC", 64), name))
	}
	req := named(job("alice", "INTEL", 32), "alice/job1")
	negotiateAs(m, "c-1", []*classad.Ad{req}, offers)
	r, _ := m.Forensics().Lookup("alice/job1")
	if len(r.Ledger) != maxLedgerEntries || !r.Truncated {
		t.Fatalf("ledger len = %d truncated = %v, want %d/true",
			len(r.Ledger), r.Truncated, maxLedgerEntries)
	}
}

// TestForensicsClaimedOfferLivelock pins ROADMAP item 1 as *resolved*:
// a machine that advertises State == "Claimed" at equal rank to an
// idle twin used to win the earliest-index tie-break every cycle, the
// claim-time revalidation bounced it every cycle, and the job starved
// while an idle machine sat next to it. better() now prefers unclaimed
// offers at equal request rank (scan.go), so the idle twin wins, the
// claim succeeds, and nothing matched-claimed appears in forensics.
// modelcheck's MC201 liveness check rediscovers the old behaviour as a
// counterexample trace when the tie-break is reverted
// (TestLivelockRegression in internal/modelcheck).
func TestForensicsClaimedOfferLivelock(t *testing.T) {
	m := New(Config{})
	m.Instrument(obs.New())
	claimed := named(machine("claimed", "INTEL", 64), "claimed")
	claimed.SetString("State", "Claimed")
	idle := named(machine("idle", "INTEL", 64), "idle")
	idle.SetString("State", "Unclaimed")
	offers := []*classad.Ad{claimed, idle}
	req := named(job("alice", "INTEL", 32), "alice/job1")

	for cycle := 1; cycle <= 3; cycle++ {
		id := fmt.Sprintf("c-%d", cycle)
		got := negotiateAs(m, id, []*classad.Ad{req}, offers)
		if len(got) != 1 || adName(got[0].Offer) != "idle" {
			t.Fatalf("cycle %d: matches = %+v, want the idle machine (tie-break resolved)", cycle, got)
		}
		r, ok := m.Forensics().Lookup("alice/job1")
		if !ok {
			t.Fatalf("cycle %d: no report", cycle)
		}
		if !r.Matched || r.Claimed || r.Cycle != id {
			t.Fatalf("cycle %d: report = %+v, want matched against an unclaimed offer", cycle, r)
		}
		if len(r.Ledger) != 0 {
			t.Fatalf("cycle %d: ledger = %+v, want no matched-claimed entry", cycle, r.Ledger)
		}
	}

	// The claimed machine is still reachable when it strictly outranks
	// the idle one in the request's eyes — preemption stays possible.
	prefer := named(job("alice", "INTEL", 32), "alice/job2")
	if err := prefer.SetExprString("Rank", `ifThenElse(other.Name == "claimed", 1, 0)`); err != nil {
		t.Fatal(err)
	}
	got := negotiateAs(m, "c-4", []*classad.Ad{prefer}, offers)
	if len(got) != 1 || adName(got[0].Offer) != "claimed" {
		t.Fatalf("preferring request: matches = %+v, want the claimed machine", got)
	}
	if r, _ := m.Forensics().Lookup("alice/job2"); !r.Claimed {
		t.Fatalf("preferring request: report = %+v, want Claimed flagged", r)
	}
}

// negotiateAs is Negotiate stamped with a cycle ID (and charging
// nothing): one pass of a fresh engine, fed the way Negotiate feeds it.
func negotiateAs(m *Matchmaker, cycle string, requests, offers []*classad.Ad) []Match {
	e := NewIncremental(m)
	for i, ad := range offers {
		e.Apply(AdDelta{Kind: AdOffer, Key: sliceKey('o', i), Ad: ad})
	}
	for i, ad := range requests {
		e.Apply(AdDelta{Kind: AdRequest, Key: sliceKey('r', i), Ad: ad})
	}
	matches, _ := e.Recompute(cycle)
	return matches
}
