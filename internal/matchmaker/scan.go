package matchmaker

// Scanning the candidate offers for one request. The scan is the same
// selection whether it runs on one goroutine or sharded across the
// CPUs, because selection is defined entirely by the better comparator
// below — a strict total order on candidates — and the reduction folds
// shard results in shard order. The sharded path is therefore
// bit-identical to the sequential one (property-tested against the
// oracle in quick_test.go), provided constraints and ranks are pure;
// an Env whose Rand is consulted by a constraint yields a
// nondeterministic stream order under any concurrent evaluation.
//
// Shared state during one scan is read-only: the request and offer ads
// (never mutated after construction), the availability vector (only
// mutated between requests), and the Env (both constructors guard
// their random stream with a mutex, giving each worker a race-free
// view). -race runs of the differential and stress suites enforce
// this.

import (
	"runtime"
	"sync"

	"repro/internal/classad"
)

// minParallelScan is the candidate count below which sharding costs
// more than it saves and the scan stays on the calling goroutine.
const minParallelScan = 64

// candidate identifies one compatible offer, the two ranks the
// selection rule orders by, and whether the offer advertises itself as
// already claimed (the ROADMAP item 1 tie-break input). index -1 is
// "no candidate".
type candidate struct {
	index            int
	reqRank, offRank float64
	claimed          bool
}

// better reports whether a should be selected over b. This is THE
// selection rule of the negotiation cycle — the scan kernel, BestOffer,
// aggregation and the shard reduction all defer to it: higher request
// rank wins, ties go first to unclaimed offers, then to the higher
// offer rank, remaining ties to the earliest offer (paper §3.2: "the
// Rank attributes are then used to choose among compatible matches").
//
// The unclaimed-over-claimed preference resolves the claimed-offer
// livelock (ROADMAP item 1, pinned by TestForensicsClaimedOfferLivelock
// and modelcheck's MC201): a claimed machine that ties an idle twin on
// rank used to win the earliest-index tie-break every cycle, and the
// resulting match bounced off claim-time rank revalidation every
// cycle. A strictly higher request rank still selects the claimed
// machine — that is exactly the preemption case the claim protocol
// admits.
func better(a, b candidate) bool {
	if a.reqRank != b.reqRank {
		return a.reqRank > b.reqRank
	}
	if a.claimed != b.claimed {
		return !a.claimed
	}
	if a.offRank != b.offRank {
		return a.offRank > b.offRank
	}
	return a.index < b.index
}

// evaluator is what every bilateral evaluation of one wake shares.
type evaluator struct {
	env *classad.Env
	// legacyTie hides claimed state from better(), restoring the
	// livelock-prone pre-fix order
	// (IncrementalHooks.LegacyClaimedTieBreak).
	legacyTie bool
}

// claimed is the offer's claimed state as better() is to see it.
func (ev evaluator) claimed(off *classad.Ad) bool {
	return !ev.legacyTie && offerClaimed(off)
}

// try evaluates req against offers[oi]; ok reports a bilateral match.
// It decides what classad.MatchEnv decides, but evaluates only as far
// as the answer needs: the offer's constraint only if the request's
// holds, the two ranks only on a match (most pairs a scan tries fail
// the first test).
func (ev evaluator) try(req *classad.Ad, offers []*classad.Ad, oi int) (c candidate, ok bool) {
	off := offers[oi]
	if !classad.EvalConstraint(req, off, ev.env) || !classad.EvalConstraint(off, req, ev.env) {
		return candidate{index: -1}, false
	}
	return candidate{oi, classad.EvalRank(req, off, ev.env), classad.EvalRank(off, req, ev.env), ev.claimed(off)}, true
}

// scanWorkers is how many goroutines a scan of n candidates uses: one
// per CPU, or one when there are too few candidates to shard.
func scanWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 || n < minParallelScan {
		return 1
	}
	if w > n {
		w = n
	}
	return w
}

// scanOffers selects the offer for one request among cand (indices
// into offers; nil means every offer), honouring availability. best is
// the incumbent the candidates must beat (index -1 for none); the
// result is the winner per better, how many offers were evaluated, and
// how many workers evaluated them.
func (ev evaluator) scanOffers(req *classad.Ad, offers []*classad.Ad, cand []int, available []bool, best candidate) (winner candidate, scanned, workers int) {
	n := len(offers)
	if cand != nil {
		n = len(cand)
	}
	workers = scanWorkers(n)
	if workers <= 1 {
		best, scanned = ev.scanRange(req, offers, cand, available, best, 0, n)
		return best, scanned, 1
	}

	type shard struct {
		best    candidate
		scanned int
	}
	results := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(s *shard, lo, hi int) {
			defer wg.Done()
			s.best, s.scanned = ev.scanRange(req, offers, cand, available, best, lo, hi)
		}(&results[w], lo, hi)
	}
	wg.Wait()

	// Deterministic reduction: every shard started from the same
	// incumbent, and better is a strict total order, so folding the
	// shard winners picks the scan's one maximum.
	for _, s := range results {
		scanned += s.scanned
		if s.best.index >= 0 && (best.index < 0 || better(s.best, best)) {
			best = s.best
		}
	}
	return best, scanned, workers
}

// scanRange is the kernel — the one place a request is evaluated
// against an offer and the result put to better(): it evaluates
// candidates lo..hi (indices into cand, or into offers directly when
// cand is nil) and returns whichever of them, or the incumbent best,
// wins.
func (ev evaluator) scanRange(req *classad.Ad, offers []*classad.Ad, cand []int, available []bool, best candidate, lo, hi int) (candidate, int) {
	scanned := 0
	for i := lo; i < hi; i++ {
		oi := i
		if cand != nil {
			oi = cand[i]
		}
		if !available[oi] || oi == best.index {
			continue
		}
		scanned++
		if c, ok := ev.try(req, offers, oi); ok && (best.index < 0 || better(c, best)) {
			best = c
		}
	}
	return best, scanned
}
