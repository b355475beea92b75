package matchmaker

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/classad"
)

// mustAd parses src or fails the test.
func mustAd(t testing.TB, src string) *classad.Ad {
	t.Helper()
	ad, err := classad.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return ad
}

func TestIndexableTestsExtraction(t *testing.T) {
	env := classad.FixedEnv(0, 1)
	cases := []struct {
		name      string
		req       string
		wantCount int
		wantUnsat bool
		wantAttrs []string
	}{
		{"equality and bound", `[ Constraint = other.Arch == "INTEL" && other.Memory >= 32 ]`,
			2, false, []string{"arch", "memory"}},
		{"self fold", `[ Memory = 31; Constraint = other.Memory >= self.Memory ]`,
			1, false, []string{"memory"}},
		{"unqualified unbound is the offer's", `[ Constraint = Arch == "SPARC" ]`,
			1, false, []string{"arch"}},
		{"unqualified bound to the request is not", `[ Arch = "SPARC"; Kflops = 10; Constraint = Arch == "SPARC" && other.Mips >= Kflops ]`,
			1, false, []string{"mips"}},
		{"bound to self, non-ground", `[ Memory = other.Disk; Constraint = other.Memory > 64 && Memory < 32 ]`,
			1, false, []string{"memory"}},
		{"literal on the left flips", `[ Constraint = 64 <= other.Memory ]`,
			1, false, []string{"memory"}},
		{"disjunction is not indexable", `[ Constraint = other.Memory >= 64 || other.Mips >= 10 ]`,
			0, false, nil},
		{"inequality operator is not indexable", `[ Constraint = other.Owner != "u1" ]`,
			0, false, nil},
		{"requirements spelling", `[ Requirements = other.Memory > 16 ]`,
			1, false, []string{"memory"}},
		{"undefined comparison is unsatisfiable", `[ Constraint = other.Memory >= undefined ]`,
			0, true, nil},
		{"no constraint", `[ Owner = "u" ]`, 0, false, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tests, unsat := IndexableTests(mustAd(t, tc.req), env)
			if unsat != tc.wantUnsat {
				t.Fatalf("unsat = %v, want %v", unsat, tc.wantUnsat)
			}
			if len(tests) != tc.wantCount {
				t.Fatalf("got %d tests %+v, want %d", len(tests), tests, tc.wantCount)
			}
			for i, attr := range tc.wantAttrs {
				if tests[i].attr != attr {
					t.Errorf("test %d attr = %q, want %q", i, tests[i].attr, attr)
				}
			}
		})
	}
}

// TestIndexCandidatesSoundAndExact: over a deliberately tricky offer
// set, the index's candidate list contains every offer the full
// bilateral match accepts (soundness), and every pruned offer really
// fails the request's constraint.
func TestIndexCandidatesSoundAndExact(t *testing.T) {
	env := classad.FixedEnv(0, 1)
	offers := []*classad.Ad{
		mustAd(t, `[ Name = "m0"; Arch = "INTEL"; Memory = 64 ]`),
		mustAd(t, `[ Name = "m1"; Arch = "intel"; Memory = 16 ]`), // case-folded equality
		mustAd(t, `[ Name = "m2"; Arch = "SPARC"; Memory = 128 ]`),
		mustAd(t, `[ Name = "m3"; Memory = 64 ]`),                   // missing Arch
		mustAd(t, `[ Name = "m4"; Arch = "INTEL" ]`),                // missing Memory
		mustAd(t, `[ Name = "m5"; Arch = "INTEL"; Memory = 2*40 ]`), // expression value
		mustAd(t, `[ Name = "m6"; Arch = 7; Memory = 64 ]`),         // wrong-typed Arch
		mustAd(t, `[ Name = "m7"; Arch = "INTEL"; Memory = 64.0 ]`), // real vs int
		mustAd(t, `[ Name = "m8"; Arch = "INTEL"; Memory = undefined ]`),
	}
	ix := NewOfferIndex(offers)
	requests := []string{
		`[ Constraint = other.Arch == "INTEL" && other.Memory >= 32 ]`,
		`[ Constraint = other.Memory == 64 ]`,
		`[ Constraint = other.Memory < 32 ]`,
		`[ Constraint = other.Memory <= 64 && other.Memory >= 64 ]`,
		`[ Constraint = other.Arch == "ALPHA" ]`,
		`[ Constraint = other.NoSuchAttr >= 5 ]`,
	}
	for _, src := range requests {
		req := mustAd(t, src)
		cand, indexed := ix.Candidates(req, env)
		if !indexed {
			t.Fatalf("%s: expected an indexed constraint", src)
		}
		inCand := make(map[int]bool, len(cand))
		for _, oi := range cand {
			inCand[oi] = true
		}
		for oi, off := range offers {
			// The index prunes on the request's constraint only;
			// soundness is about one-way pruning, so check that side.
			ok := classad.EvalConstraint(req, off, env)
			if ok && !inCand[oi] {
				t.Errorf("%s: offer %d satisfies the constraint but was pruned", src, oi)
			}
		}
	}
}

// TestIndexCandidatesPruneEverything: constraints no offer satisfies
// produce an empty (non-nil) candidate list.
func TestIndexCandidatesPruneEverything(t *testing.T) {
	env := classad.FixedEnv(0, 1)
	ix := NewOfferIndex([]*classad.Ad{
		mustAd(t, `[ Arch = "INTEL"; Memory = 64 ]`),
	})
	for _, src := range []string{
		`[ Constraint = other.Arch == "VAX" ]`,
		`[ Constraint = other.Memory > 64 ]`,
		`[ Constraint = other.Mips >= 1 ]`, // attribute absent pool-wide
		`[ Constraint = other.Memory >= undefined ]`,
	} {
		cand, indexed := ix.Candidates(mustAd(t, src), env)
		if !indexed {
			t.Fatalf("%s: expected indexed", src)
		}
		if len(cand) != 0 {
			t.Errorf("%s: got candidates %v, want none", src, cand)
		}
	}
}

// TestIndexAddRemove: incremental maintenance keeps candidate lists
// consistent with a rebuilt index.
func TestIndexAddRemove(t *testing.T) {
	env := classad.FixedEnv(0, 1)
	req := mustAd(t, `[ Constraint = other.Memory >= 32 ]`)
	ix := NewOfferIndex(nil)
	var slots []int
	for i := 0; i < 10; i++ {
		slots = append(slots, ix.Add(mustAd(t, fmt.Sprintf(`[ Name = "m%d"; Memory = %d ]`, i, 16*(i+1)))))
	}
	cand, _ := ix.Candidates(req, env)
	if len(cand) != 9 { // memory 16 fails, 32..160 pass
		t.Fatalf("got %d candidates, want 9", len(cand))
	}
	ix.Remove(slots[5])
	ix.Remove(slots[5]) // double remove is a no-op
	cand, _ = ix.Candidates(req, env)
	if len(cand) != 8 {
		t.Fatalf("after remove: got %d candidates, want 8", len(cand))
	}
	for _, oi := range cand {
		if oi == slots[5] {
			t.Fatalf("removed slot %d still a candidate", slots[5])
		}
	}
	if ix.Len() != 9 {
		t.Fatalf("Len = %d, want 9", ix.Len())
	}
}

// TestNegotiateIndexedMatchesPlain is the deterministic spot check the
// randomized differential test generalizes: one mixed pool, the
// engine's index-pruned scan against the oracle's linear one.
func TestNegotiateIndexedMatchesPlain(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	offers := randomPool(r, 40)
	requests := randomRequests(r, 25)
	env := classad.FixedEnv(0, 7)
	plain := naiveMatches(Config{Env: env}, requests, offers)
	indexed := New(Config{Env: env}).Negotiate(requests, offers)
	if len(plain) != len(indexed) {
		t.Fatalf("match counts differ: %d vs %d", len(plain), len(indexed))
	}
	for i := range plain {
		if plain[i] != indexed[i] {
			t.Errorf("match %d differs: %+v vs %+v", i, plain[i], indexed[i])
		}
	}
}
