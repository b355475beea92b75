package matchmaker

// Scanning the candidate offers for one request. Selection is defined
// entirely by the better comparator below — a strict total order on
// candidates whose first key is the request's Rank of the offer — so
// the scan finds the winner without trying every candidate's
// constraints. It runs in three steps:
//
//  1. Order: the candidates by request rank descending. A request
//     whose Rank residual depends on the offer alone reads the order
//     from the offer index's rank list for that residual
//     (ranklist.go); any other request, and a candidate set too small
//     to repay a walk down a list as long as the pool, takes the rank
//     pass: the request's Rank of every available candidate, sharded
//     across the CPUs like any long list, then a sort by rank and view
//     position in memory kept between scans.
//  2. Filter: a walk down a rank list passes over the slots the
//     request's candidate set does not hold, dead slots and offers
//     already taken; the rank pass ranks only candidates to begin with.
//  3. Walk: the candidates' constraints in that order, each try handed
//     the rank the order holds. Once a candidate matches at request
//     rank r*, the walk finishes the rest of the r* run, where
//     better()'s claimed, offer-rank and position tie-breaks act, and
//     stops: every later candidate ranks below the match and loses to
//     it whatever its constraints say. With an incumbent the walk stops
//     at the first candidate ranked below the incumbent.
//
// Inside a run the walk passes over, untried, each candidate whose
// offer key (its rank of the request and its claimed state, known
// when its Rank and State are absent or literals) already loses to the
// incumbent. A run is in view-position order, so once one of a pool's
// regular twins matches, every later twin with its key loses on
// position: a run of them costs one try, not one per twin (the paper's
// §5 "matched in groups"). An offer whose key is not known is tried.
//
// The result is better()'s maximum over every candidate, for any Rank
// expression (pinned against the unordered scan in scan_test.go and
// ranklist_test.go, and against the naive oracle by quick_test.go). A request that matches
// nothing still tries every candidate: the walk takes the order in
// blocks that start at firstWalkBlock and double, and a block of
// minParallelScan or more is sharded across the CPUs, each shard
// walking its own stretch of the order from the same incumbent. The shard reduction folds shard
// results in shard order, so a sharded scan picks what the sequential
// one picks, provided constraints and ranks are pure; an Env whose
// Rand is consulted by a constraint yields a nondeterministic stream
// order under any concurrent evaluation.
//
// Shared state during one scan is read-only: the request and offer ads
// (never mutated after construction), the availability vector (only
// mutated between requests), the rank list (settled before its walk
// begins), and the Env (both constructors guard
// their random stream with a mutex, giving each worker a race-free
// view). Each shard writes only its own stretch of the rank order.
// -race runs of the differential and stress suites enforce this.

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	"repro/internal/classad"
)

// minParallelScan is the candidate count below which sharding costs
// more than it saves and the work stays on the calling goroutine.
const minParallelScan = 64

// firstWalkBlock is the length of the walk's first block; each later
// block is twice the one before. The first blocks stay on the calling
// goroutine, so a request that matches among its best-ranked
// candidates tries no candidate past its winner's run.
const firstWalkBlock = 16

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
// selection rule of the negotiation cycle — the scan kernel, its skip
// of losing twins, BestOffer and the shard reduction all defer to it: higher request
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

// ranked is one entry of the rank order: an offer's view position and
// the request's Rank of it.
type ranked struct {
	index int
	rank  float64
}

// byRank orders the walk: request rank descending, then view position
// ascending. -0 and +0 compare equal, as they do in better().
func byRank(a, b ranked) int {
	switch {
	case a.rank > b.rank:
		return -1
	case a.rank < b.rank:
		return 1
	}
	return cmp.Compare(a.index, b.index)
}

// offerKey is what better() reads of an offer besides the request's
// rank of it: the offer's rank of the request and its claimed state.
// known says no request can change either: the offer's Rank and State
// are absent or literals.
type offerKey struct {
	offRank float64
	claimed bool
	known   bool
}

// keyAttrs are the folded names of the attributes an offer key reads.
var keyAttrs = [...]string{classad.Fold(classad.AttrRank), "state"}

// keyOf derives off's offer key.
func keyOf(off *classad.Ad) offerKey {
	for _, key := range keyAttrs {
		if e, ok := off.LookupKey(key); ok && classad.Inspect(e).Kind != classad.KindLiteral {
			return offerKey{}
		}
	}
	return offerKey{classad.EvalRank(off, off, nil), offerClaimed(off), true}
}

// evaluator is what every bilateral evaluation of one wake shares.
type evaluator struct {
	env *classad.Env
	// order is the memory the rank order is built in, kept by the
	// caller between scans.
	order *[]ranked
	// keys are the engine's keyed index's offer keys by slot and slots
	// the view's slots, so keys[slots[pos]] is the key of the offer at
	// view position pos; without them (BestOffer) the walk derives a
	// key from the ad.
	keys  []offerKey
	slots []int
	// legacyTie hides claimed state from better(), restoring the
	// livelock-prone pre-fix order
	// (IncrementalHooks.LegacyClaimedTieBreak).
	legacyTie bool
	// stopBeforeTies ends the walk at its first match, leaving the rest
	// of that rank run untried (IncrementalHooks.StopBeforeTies).
	stopBeforeTies bool
}

// claimed is the offer's claimed state as better() is to see it.
func (ev evaluator) claimed(off *classad.Ad) bool {
	return !ev.legacyTie && offerClaimed(off)
}

// loses reports whether the offer at view position pos, ranked by the
// request equal to the incumbent best, loses to best whether it matches
// or not: its key is known and better() prefers best over the
// candidate the offer would be.
func (ev evaluator) loses(offers []*classad.Ad, pos int, best candidate) bool {
	var k offerKey
	if ev.keys != nil {
		k = ev.keys[ev.slots[pos]]
	} else {
		k = keyOf(offers[pos])
	}
	return k.known && !better(candidate{pos, best.reqRank, k.offRank, !ev.legacyTie && k.claimed}, best)
}

// try evaluates req against offers[oi], whose request rank the caller
// already has; ok reports a bilateral match. It decides what
// classad.MatchEnv decides, but evaluates only as far as the answer
// needs: the offer's constraint only if the request's holds, the
// offer's rank only on a match (most pairs a scan tries fail the first
// test).
func (ev evaluator) try(req *classad.Ad, offers []*classad.Ad, oi int, reqRank float64) (c candidate, ok bool) {
	off := offers[oi]
	if !classad.EvalConstraint(req, off, ev.env) || !classad.EvalConstraint(off, req, ev.env) {
		return candidate{index: -1}, false
	}
	return candidate{oi, reqRank, classad.EvalRank(off, req, ev.env), ev.claimed(off)}, true
}

// done reports whether a walk holding best can stop at a candidate of
// request rank rank: it, and every candidate after it in the order,
// loses to best.
func (ev evaluator) done(best candidate, rank float64) bool {
	return best.index >= 0 && (rank < best.reqRank || ev.stopBeforeTies && rank == best.reqRank)
}

// scanWorkers is how many goroutines a pass over n candidates uses: one
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

// scanCost is what one scan spent: the pairs whose constraints it
// tried, the request ranks its rank pass evaluated, and how many
// workers that pass used.
type scanCost struct {
	tried, ranked, workers int
}

// scanOffers selects the offer for one request among cand (indices
// into offers; nil means every offer), honouring availability. best is
// the incumbent the candidates must beat (index -1 for none); the
// result is the winner per better and what finding it cost.
func (ev evaluator) scanOffers(req *classad.Ad, offers []*classad.Ad, cand []int, available []bool, best candidate) (candidate, scanCost) {
	n := len(offers)
	if cand != nil {
		n = len(cand)
	}
	order := growTo(ev.order, n)[:0]
	for i := 0; i < n; i++ {
		oi := i
		if cand != nil {
			oi = cand[i]
		}
		if available[oi] && oi != best.index {
			order = append(order, ranked{index: oi})
		}
	}
	cost := scanCost{ranked: len(order), workers: scanWorkers(len(order))}
	if cost.workers <= 1 {
		ev.rank(req, offers, order)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < cost.workers; w++ {
			part := order[w*len(order)/cost.workers : (w+1)*len(order)/cost.workers]
			wg.Add(1)
			go func() {
				defer wg.Done()
				ev.rank(req, offers, part)
			}()
		}
		wg.Wait()
	}
	slices.SortFunc(order, byRank)
	best, cost.tried = ev.walkOrder(req, offers, best, func(n int) []ranked {
		block := order[:min(n, len(order))]
		order = order[len(block):]
		return block
	})
	return best, cost
}

// walkOrder walks a rank order from the incumbent best, in blocks that
// start at firstWalkBlock entries and double: next returns the order's
// next entries, at most n of them, and none at its end. It stops at
// the first block whose head cannot beat what the walk holds, and
// returns the winner (or best) and how many pairs it tried.
func (ev evaluator) walkOrder(req *classad.Ad, offers []*classad.Ad, best candidate, next func(n int) []ranked) (candidate, int) {
	tried := 0
	for size := firstWalkBlock; ; size *= 2 {
		block := next(size)
		if len(block) == 0 || ev.done(best, block[0].rank) {
			return best, tried
		}
		var t int
		best, t = ev.walkBlock(req, offers, block, best)
		tried += t
	}
}

// rank fills in the request's Rank of each entry's offer.
func (ev evaluator) rank(req *classad.Ad, offers []*classad.Ad, order []ranked) {
	for i := range order {
		order[i].rank = classad.EvalRank(req, offers[order[i].index], ev.env)
	}
}

// walkBlock walks one block of the rank order from the incumbent best,
// sharded when the block is long enough, and returns the block's
// winner (or best) and how many pairs it tried.
func (ev evaluator) walkBlock(req *classad.Ad, offers []*classad.Ad, block []ranked, best candidate) (candidate, int) {
	workers := scanWorkers(len(block))
	if workers <= 1 {
		return ev.walk(req, offers, block, best)
	}
	type shard struct {
		best  candidate
		tried int
	}
	results := make([]shard, workers)
	var wg sync.WaitGroup
	for w := range results {
		part := block[w*len(block)/workers : (w+1)*len(block)/workers]
		wg.Add(1)
		go func(s *shard, incumbent candidate) {
			defer wg.Done()
			s.best, s.tried = ev.walk(req, offers, part, incumbent)
		}(&results[w], best)
	}
	wg.Wait()

	// Deterministic reduction: every shard started from the same
	// incumbent and skipped only candidates that lose to its own
	// winner, and better is a strict total order, so folding the shard
	// winners picks the block's one maximum.
	tried := 0
	for _, s := range results {
		tried += s.tried
		if s.best.index >= 0 && (best.index < 0 || better(s.best, best)) {
			best = s.best
		}
	}
	return best, tried
}

// walk is the kernel — the one place a scan evaluates a request
// against an offer and puts the result to better(). It tries a stretch
// of the rank order in turn and returns whichever candidate, or the
// incumbent best, wins, and how many pairs it tried. Because the
// stretch is in rank order it stops at the first candidate that cannot
// beat what it holds, and inside the incumbent's rank run it passes
// over the offers that provably lose to it.
func (ev evaluator) walk(req *classad.Ad, offers []*classad.Ad, order []ranked, best candidate) (candidate, int) {
	tried := 0
	for _, r := range order {
		if ev.done(best, r.rank) {
			break
		}
		if best.index >= 0 && r.rank == best.reqRank && ev.loses(offers, r.index, best) {
			continue
		}
		tried++
		if c, ok := ev.try(req, offers, r.index, r.rank); ok && (best.index < 0 || better(c, best)) {
			best = c
		}
	}
	return best, tried
}
