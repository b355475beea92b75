package matchmaker

// Property-based tests of the negotiation cycle's invariants over
// randomly generated pools and workloads.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/classad"
)

// randomPool builds a random offer list; some machines carry owner
// constraints.
func randomPool(r *rand.Rand, n int) []*classad.Ad {
	archs := []string{"INTEL", "SPARC", "ALPHA"}
	out := make([]*classad.Ad, n)
	for i := range out {
		m := machine(fmt.Sprintf("m%d", i), archs[r.Intn(len(archs))],
			int64(32*(1+r.Intn(8))))
		switch r.Intn(4) {
		case 0:
			_ = m.SetExprString("Constraint", `other.Memory <= Memory`)
		case 1:
			_ = m.SetExprString("Constraint", fmt.Sprintf(`other.Owner != "u%d"`, r.Intn(4)))
		}
		if r.Intn(2) == 0 {
			_ = m.SetExprString("Rank", "other.Memory")
		}
		out[i] = m
	}
	return out
}

func randomRequests(r *rand.Rand, n int) []*classad.Ad {
	archs := []string{"INTEL", "SPARC", "ALPHA"}
	out := make([]*classad.Ad, n)
	for i := range out {
		j := job(fmt.Sprintf("u%d", r.Intn(4)), archs[r.Intn(len(archs))],
			int64(16*(1+r.Intn(8))))
		j.SetInt("Memory", int64(16*(1+r.Intn(8))))
		if r.Intn(2) == 0 {
			_ = j.SetExprString("Rank", "other.Memory")
		}
		out[i] = j
	}
	return out
}

// trickyPool builds an offer list that stresses the offer index:
// literal attributes (posting lists), expression-valued attributes
// (always-candidates), missing attributes (strict-comparison pruning),
// wrong-typed attributes, and offer-side constraints. It stresses the
// rank-ordered scan too: Score, which trickyRequests' Ranks read, is
// a small integer (rank ties), -0.0 or +0.0, a string, 0.0/0.0 or
// absent (the last three rank 0, per RankVal), and a fifth of the
// machines advertise State "Claimed", so claimed and unclaimed twins
// meet at equal rank.
func trickyPool(r *rand.Rand, n int) []*classad.Ad {
	archs := []string{"INTEL", "SPARC", "ALPHA"}
	out := make([]*classad.Ad, n)
	for i := range out {
		m := machine(fmt.Sprintf("m%d", i), archs[r.Intn(len(archs))],
			int64(32*(1+r.Intn(8))))
		switch r.Intn(8) {
		case 0: // expression-valued Memory: index must keep it
			m.SetInt("Slots", int64(1+r.Intn(4)))
			_ = m.SetExprString("Memory", "32 * Slots")
		case 1: // missing Memory entirely
			m.Delete("Memory")
		case 2: // wrong-typed Arch
			m.SetInt("Arch", int64(r.Intn(3)))
		case 3: // offer-side constraint (bilateral pruning untouched)
			_ = m.SetExprString("Constraint", `other.Memory <= Memory`)
		case 4:
			_ = m.SetExprString("Constraint", fmt.Sprintf(`other.Owner != "u%d"`, r.Intn(4)))
		}
		if r.Intn(2) == 0 {
			_ = m.SetExprString("Rank", "other.Memory")
		}
		switch r.Intn(6) {
		case 0:
			m.SetInt("Score", int64(r.Intn(3)))
		case 1:
			_ = m.SetExprString("Score", "-0.0")
		case 2:
			m.SetReal("Score", 0)
		case 3:
			m.SetString("Score", "fast")
		case 4:
			_ = m.SetExprString("Score", "0.0/0.0")
		}
		if r.Intn(5) == 0 {
			m.SetString("State", "Claimed")
		}
		out[i] = m
	}
	return out
}

// trickyRequests builds a request mix of matchable, unsatisfiable, and
// undefined-yielding constraints, exercising every extraction rule of
// the index (self folds, unqualified names, flipped literals,
// unindexable disjunctions, both constraint spellings), plus one that
// survives the index and matches nothing. Ranks are absent (one rank
// run), other.Memory, other.Score (ties, both zeros, non-numeric and
// NaN values), 0/0 (every offer ranks 0), or the negated Memory, which
// ranks the offers a Memory floor admits last, so the ordered walk
// goes deep before it matches.
func trickyRequests(r *rand.Rand, n int) []*classad.Ad {
	archs := []string{"INTEL", "SPARC", "ALPHA"}
	out := make([]*classad.Ad, n)
	for i := range out {
		j := job(fmt.Sprintf("u%d", r.Intn(4)), archs[r.Intn(len(archs))],
			int64(16*(1+r.Intn(8))))
		j.SetInt("Memory", int64(16*(1+r.Intn(8))))
		switch r.Intn(10) {
		case 0: // self fold: residual is other.Memory >= <literal>
			_ = j.SetExprString("Constraint", `other.Memory >= self.Memory`)
		case 1: // flipped literal operand
			_ = j.SetExprString("Constraint", fmt.Sprintf(`%d <= other.Memory`, 32*(1+r.Intn(4))))
		case 2: // unsatisfiable interval pair: prunes everything
			_ = j.SetExprString("Constraint", `other.Memory > 64 && other.Memory < 32`)
		case 3: // undefined-yielding: attribute absent pool-wide
			_ = j.SetExprString("Constraint", `other.NoSuchAttr >= 5`)
		case 4: // disjunction: not indexable, full scan
			_ = j.SetExprString("Constraint", `other.Memory >= 64 || other.Mips >= 10`)
		case 5: // alternative spelling
			c, _ := j.Lookup("Constraint")
			j.Delete("Constraint")
			j.Set("Requirements", c)
		case 6: // equality on the numeric axis
			_ = j.SetExprString("Constraint", fmt.Sprintf(`other.Memory == %d`, 32*(1+r.Intn(8))))
		case 7: // not indexable, and no offer satisfies it
			_ = j.SetExprString("Constraint", `other.Memory - other.Memory > 1`)
		}
		if rank := []string{"", "other.Memory", "other.Score", "0/0", "0 - other.Memory"}[r.Intn(5)]; rank != "" {
			_ = j.SetExprString("Rank", rank)
		}
		out[i] = j
	}
	return out
}

// TestQuickDifferentialIndexParallel is the differential property test
// locking the engine to the naive oracle: over randomized pools mixing
// matchable, unsatisfiable, and undefined-yielding constraints and
// tied, zero, non-numeric and absent ranks, Negotiate — index-pruned,
// rank-ordered, and sharded wherever a candidate list or walk block is
// long enough — returns identical matches, ranks, and ordering to the
// oracle's linear scan, with and without FairShare, on one CPU and on
// four.
func TestQuickDifferentialIndexParallel(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			quickDifferentialIndex(t)
		})
	}
}

func quickDifferentialIndex(t *testing.T) {
	maxCount := 120
	if testing.Short() {
		maxCount = 25
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Every third pool is large enough for unindexed requests (and
		// weakly pruned ones) to cross minParallelScan.
		size := 1 + r.Intn(40)
		if seed%3 == 0 {
			size += 2 * minParallelScan
		}
		offers := trickyPool(r, size)
		requests := trickyRequests(r, 1+r.Intn(25))
		env := classad.FixedEnv(0, seed)
		for _, fair := range []bool{false, true} {
			cfg := Config{Env: env, FairShare: fair}
			ref := naiveMatches(cfg, requests, offers)
			got := New(cfg).Negotiate(requests, offers)
			if len(got) != len(ref) {
				t.Logf("seed %d fair=%v: %d matches, reference %d", seed, fair, len(got), len(ref))
				return false
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Logf("seed %d fair=%v: match %d differs:\n got %+v\n ref %+v",
						seed, fair, i, got[i], ref[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Error(err)
	}
}

// TestQuickNegotiateInvariants: every produced match is bilaterally
// valid, no offer is used twice, no request is served twice, and the
// cycle is deterministic.
func TestQuickNegotiateInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		offers := randomPool(r, 1+r.Intn(20))
		requests := randomRequests(r, 1+r.Intn(20))
		env := classad.FixedEnv(0, seed)
		for _, cfg := range []Config{
			{Env: env},
			{Env: env, FairShare: true},
		} {
			matches := New(cfg).Negotiate(requests, offers)
			usedOffer := map[*classad.Ad]bool{}
			usedReq := map[*classad.Ad]bool{}
			for _, m := range matches {
				if usedOffer[m.Offer] || usedReq[m.Request] {
					t.Logf("seed %d cfg %+v: duplicate use", seed, cfg)
					return false
				}
				usedOffer[m.Offer] = true
				usedReq[m.Request] = true
				res := classad.MatchEnv(m.Request, m.Offer, env)
				if !res.Matched {
					t.Logf("seed %d cfg %+v: invalid match emitted", seed, cfg)
					return false
				}
			}
			again := New(cfg).Negotiate(requests, offers)
			if len(again) != len(matches) {
				t.Logf("seed %d cfg %+v: nondeterministic cycle", seed, cfg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickNegotiateMaximalForSatisfiableRequests: any request left
// unmatched has no compatible offer left unused (the cycle does not
// strand work it could have served). This holds for the greedy
// algorithm because each request takes at most one offer.
func TestQuickNegotiateNoStrandedWork(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		offers := randomPool(r, 1+r.Intn(15))
		requests := randomRequests(r, 1+r.Intn(15))
		env := classad.FixedEnv(0, seed)
		matches := New(Config{Env: env}).Negotiate(requests, offers)
		usedOffer := map[*classad.Ad]bool{}
		usedReq := map[*classad.Ad]bool{}
		for _, m := range matches {
			usedOffer[m.Offer] = true
			usedReq[m.Request] = true
		}
		for _, req := range requests {
			if usedReq[req] {
				continue
			}
			for _, off := range offers {
				if usedOffer[off] {
					continue
				}
				if classad.MatchEnv(req, off, env).Matched {
					t.Logf("seed %d: request stranded despite compatible free offer", seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickGroupMatchingEquivalence: passing over the twins of a rank
// run that lose to its match never changes who gets served, by which
// offer, or at what rank, over random value-regular pools. A class's
// twins differ only in Name and share an offer Rank that is absent, a
// literal, or reads other.Owner (so its key is not known); single
// offers break ranks with a State "Claimed" twin, a constraint reading
// other.JobId, or a Rank reading other.Cluster; and requests read
// identity attributes (other.Name) in constraint and Rank.
func TestQuickGroupMatchingEquivalence(t *testing.T) {
	ranks := []string{"", "2", `other.Owner == "u1" ? 3 : 1`}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		classes := 1 + r.Intn(5)
		n := classes * (1 + r.Intn(6))
		classRank := make([]string, classes)
		for c := range classRank {
			classRank[c] = ranks[r.Intn(len(ranks))]
		}
		offers := make([]*classad.Ad, n)
		for i := range offers {
			c := i % classes
			m := machine(fmt.Sprintf("m%d", i), "INTEL", int64(32*(c+1)))
			m.SetInt("Class", int64(c))
			if classRank[c] != "" {
				_ = m.SetExprString("Rank", classRank[c])
			}
			switch r.Intn(8) {
			case 0:
				_ = m.SetExprString("Constraint", fmt.Sprintf(`other.JobId != %d`, r.Intn(4)))
			case 1:
				_ = m.SetExprString("Rank", fmt.Sprintf(`other.Cluster == %d ? 5 : 0`, r.Intn(3)))
			case 2:
				m.SetString("State", "Claimed")
			}
			offers[i] = m
		}
		requests := randomRequests(r, 1+r.Intn(12))
		for i, req := range requests {
			req.SetInt("JobId", int64(i%4))
			req.SetInt("Cluster", int64(r.Intn(3)))
			c, _ := req.Lookup("Constraint")
			switch r.Intn(6) {
			case 0:
				_ = req.SetExprString("Constraint", fmt.Sprintf(`%s && other.Name != "m%d"`, c, r.Intn(n)))
			case 1:
				_ = req.SetExprString("Rank", fmt.Sprintf(`other.Name == "m%d" ? 1000 : 0`, r.Intn(n)))
			}
		}
		env := classad.FixedEnv(0, seed)
		plain := naiveMatches(Config{Env: env}, requests, offers)
		got := New(Config{Env: env}).Negotiate(requests, offers)
		if len(plain) != len(got) {
			t.Logf("seed %d: counts differ %d vs %d", seed, len(plain), len(got))
			return false
		}
		for i := range plain {
			if plain[i] != got[i] {
				t.Logf("seed %d: match %d differs:\n oracle %+v\n engine %+v", seed, i, plain[i], got[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickGangInvariants: gang assignments use distinct offers and
// every slot's bilateral constraints hold.
func TestQuickGangInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		offers := randomPool(r, 2+r.Intn(15))
		// Random 2-3 slot gang over arch/memory requirements.
		slots := 2 + r.Intn(2)
		gangSrc := `[ Type = "Job"; Owner = "u0"; Gang = {`
		for s := 0; s < slots; s++ {
			if s > 0 {
				gangSrc += ", "
			}
			gangSrc += fmt.Sprintf(
				`[ Constraint = other.Memory >= %d ]`, 32*(1+r.Intn(4)))
		}
		gangSrc += `} ]`
		req := classad.MustParse(gangSrc)
		env := classad.FixedEnv(0, seed)
		gm, ok := MatchGang(req, offers, env)
		if !ok {
			return true // nothing to check; all-or-nothing respected
		}
		seen := map[int]bool{}
		for si, oi := range gm.Offers {
			if seen[oi] {
				t.Logf("seed %d: offer %d reused", seed, oi)
				return false
			}
			seen[oi] = true
			if !classad.MatchEnv(gm.SubRequests[si], offers[oi], env).Matched {
				t.Logf("seed %d: slot %d invalid", seed, si)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
