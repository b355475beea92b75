package matchmaker

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/classad"
)

// TestBetterComparator pins the selection rule both Negotiate's scan
// and BestOffer defer to — one source of truth for tie-breaking.
func TestBetterComparator(t *testing.T) {
	cases := []struct {
		name string
		a, b candidate
		want bool
	}{
		{"higher request rank wins", candidate{5, 2, 0, false}, candidate{1, 1, 9, false}, true},
		{"lower request rank loses", candidate{1, 1, 9, false}, candidate{5, 2, 0, false}, false},
		{"request tie, higher offer rank wins", candidate{5, 1, 3, false}, candidate{1, 1, 2, false}, true},
		{"request tie, lower offer rank loses", candidate{1, 1, 2, false}, candidate{5, 1, 3, false}, false},
		{"full tie, earlier offer wins", candidate{1, 1, 1, false}, candidate{5, 1, 1, false}, true},
		{"full tie, later offer loses", candidate{5, 1, 1, false}, candidate{1, 1, 1, false}, false},
		{"identical candidate is not better", candidate{3, 1, 1, false}, candidate{3, 1, 1, false}, false},
		// ROADMAP item 1: at equal request rank an unclaimed offer beats
		// a claimed one, even a later or higher-offer-ranked one …
		{"request tie, unclaimed beats claimed", candidate{5, 1, 0, false}, candidate{1, 1, 9, true}, true},
		{"request tie, claimed loses to unclaimed", candidate{1, 1, 9, true}, candidate{5, 1, 0, false}, false},
		// … but a strictly higher request rank still selects the claimed
		// offer — that is the preemption case the claim protocol admits.
		{"higher request rank beats unclaimed", candidate{5, 2, 0, true}, candidate{1, 1, 9, false}, true},
		{"claimed full tie, earlier offer wins", candidate{1, 1, 1, true}, candidate{5, 1, 1, true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := better(tc.a, tc.b); got != tc.want {
				t.Errorf("better(%+v, %+v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

// TestBestOfferTieBreaks pins BestOffer's externally observable
// tie-break behaviour against ads: a later offer wins only on a
// strictly better rank pair; full ties keep the earliest offer.
func TestBestOfferTieBreaks(t *testing.T) {
	req := mustAd(t, `[ Constraint = other.Memory >= 1; Rank = other.Mem ]`)
	offer := func(mem, reqRank, offRank int) *classad.Ad {
		return mustAd(t, fmt.Sprintf(
			`[ Memory = %d; Mem = %d; Rank = %d ]`, mem, reqRank, offRank))
	}
	cases := []struct {
		name   string
		offers []*classad.Ad
		want   int
	}{
		{"higher request rank wins over earlier offer",
			[]*classad.Ad{offer(1, 1, 0), offer(1, 2, 0)}, 1},
		{"request-rank tie broken by offer rank",
			[]*classad.Ad{offer(1, 1, 1), offer(1, 1, 2), offer(1, 1, 0)}, 1},
		{"full tie keeps the earliest offer",
			[]*classad.Ad{offer(1, 1, 1), offer(1, 1, 1), offer(1, 1, 1)}, 0},
		{"later strictly-better offer rank wins",
			[]*classad.Ad{offer(1, 1, 1), offer(1, 1, 1), offer(1, 1, 5)}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _ := BestOffer(req, tc.offers, classad.FixedEnv(0, 1))
			if got != tc.want {
				t.Errorf("BestOffer = %d, want %d", got, tc.want)
			}
			// Negotiate with this single request must agree: the two
			// entry points share one comparator.
			matches := New(Config{Env: classad.FixedEnv(0, 1)}).
				Negotiate([]*classad.Ad{req}, tc.offers)
			if len(matches) != 1 || matches[0].Offer != tc.offers[tc.want] {
				t.Errorf("Negotiate disagrees with BestOffer")
			}
		})
	}
}

// withProcs runs the rest of the test under GOMAXPROCS(n): worker
// count comes from the runtime, not a knob, so tests that need the
// sharded scan (or need it off) set the runtime.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// scanRange is the oracle the rank-ordered scan is held to: the
// unordered scan over all candidates. It tries every available
// candidate other than the incumbent, in list order, keeps better()'s
// maximum, and reports how many pairs it tried.
func scanRange(ev evaluator, req *classad.Ad, offers []*classad.Ad, available []bool, best candidate) (candidate, int) {
	tried, incumbent := 0, best.index
	for oi, off := range offers {
		if !available[oi] || oi == incumbent {
			continue
		}
		tried++
		if c, ok := ev.try(req, offers, oi, classad.EvalRank(req, off, ev.env)); ok && (best.index < 0 || better(c, best)) {
			best = c
		}
	}
	return best, tried
}

// TestParallelScanMatchesSequential: the rank-ordered scan — on one
// goroutine at GOMAXPROCS 1, with its rank pass and long walk blocks
// sharded at 4 — picks exactly what the unordered oracle picks, with
// and without an incumbent (unclaimed, claimed, at rank 0 and above),
// for candidate counts on both sides of minParallelScan and of the
// walk's blocks. It ranks every candidate the oracle tries and tries
// no more of them. The generated requests must stop early, walk into a
// sharded block, and match nothing, or the test exercised too little.
func TestParallelScanMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pool := trickyPool(r, 301)
	requests := trickyRequests(r, 60)
	env := classad.FixedEnv(0, 11)
	available := make([]bool, len(pool))
	for i := range available {
		available[i] = i%7 != 0
	}
	incumbents := []candidate{
		{index: -1},
		{index: 1, reqRank: 64, offRank: 32},
		{index: 2, claimed: true},
		{index: 3, reqRank: 1, offRank: 1},
	}
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		var early, deep, unmatched int
		for _, n := range []int{minParallelScan - 1, minParallelScan, 130, 301} {
			offers := pool[:n]
			for _, req := range requests {
				for _, incumbent := range incumbents {
					ev := evaluator{env: env, order: new([]ranked)}
					want, wantTried := scanRange(ev, req, offers, available, incumbent)
					got, cost := ev.scanOffers(req, offers, nil, available, incumbent)
					if got != want {
						t.Fatalf("procs=%d n=%d incumbent %+v: ordered scan picks %+v, oracle %+v\nrequest %s",
							procs, n, incumbent, got, want, req)
					}
					if cost.ranked != wantTried || cost.tried > wantTried {
						t.Fatalf("procs=%d n=%d incumbent %+v: ranked %d and tried %d of the oracle's %d candidates",
							procs, n, incumbent, cost.ranked, cost.tried, wantTried)
					}
					if w := scanWorkers(cost.ranked); cost.workers != w || (procs == 4 && n >= 130) != (w == 4) {
						t.Fatalf("procs=%d n=%d: rank pass used %d workers", procs, n, cost.workers)
					}
					switch {
					case got.index < 0:
						unmatched++
					case cost.tried < wantTried:
						early++
					}
					if cost.tried > 3*firstWalkBlock {
						deep++
					}
				}
			}
		}
		if early == 0 || deep == 0 || unmatched == 0 {
			t.Fatalf("procs=%d: %d scans stopped early, %d reached a sharded block, %d matched nothing; each must occur",
				procs, early, deep, unmatched)
		}
	}
}

// TestScanWorkersResolution pins how worker count follows from the
// CPUs and the candidate count.
func TestScanWorkersResolution(t *testing.T) {
	cases := []struct {
		procs, candidates, want int
	}{
		{1, 1000, 1},                // one CPU: nothing to shard across
		{4, 1000, 4},                // one worker per CPU
		{4, minParallelScan - 1, 1}, // too few candidates to shard
		{8, minParallelScan, 8},     // at the threshold
		{128, 100, 100},             // capped at candidate count
	}
	for _, tc := range cases {
		withProcs(t, tc.procs)
		if got := scanWorkers(tc.candidates); got != tc.want {
			t.Errorf("GOMAXPROCS=%d: scanWorkers(%d) = %d, want %d",
				tc.procs, tc.candidates, got, tc.want)
		}
	}
}

// TestTryMatchesMatchEnv: the kernel's short-circuit evaluation decides
// exactly what classad.MatchEnv decides — a match iff both constraints
// hold, with the same two ranks — over generated pairs that match, fail
// on either side, and evaluate to undefined or error.
func TestTryMatchesMatchEnv(t *testing.T) {
	env := classad.FixedEnv(0, 5)
	ev := evaluator{env: env}
	matched, failed := 0, 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		offers := trickyPool(r, 24)
		for _, req := range trickyRequests(r, 12) {
			for oi, off := range offers {
				want := classad.MatchEnv(req, off, env)
				c, ok := ev.try(req, offers, oi, classad.EvalRank(req, off, env))
				if ok {
					matched++
				} else {
					failed++
				}
				if ok != want.Matched {
					t.Errorf("seed %d: try(%s, %s) matched=%v, MatchEnv %+v", seed, req, off, ok, want)
					return false
				}
				if ok && (c.index != oi || c.reqRank != want.LeftRank || c.offRank != want.RightRank) {
					t.Errorf("seed %d: try(%s, %s) = %+v, MatchEnv %+v", seed, req, off, c, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if matched == 0 || failed == 0 {
		t.Fatalf("generated pairs: %d matched, %d failed; both outcomes must occur", matched, failed)
	}
}
