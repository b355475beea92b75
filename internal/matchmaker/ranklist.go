package matchmaker

// Rank lists: the full scan's rank order, kept between scans.
//
// Every job of a template ranks offers by the same expression once its
// own attributes are folded in: Figure 2's Rank, KFlops/1E3 +
// other.Memory/32, reads nothing of the job at all. The rank pass of
// scan.go would evaluate that expression on every candidate of every
// such job, on every wake. Instead the offer index keeps, per such
// residual (the key), one list of (the exact EvalRank, slot) sorted
// by rank descending and, inside an equal-rank run, by view position,
// the rank pass's order, maintained with the index: Add ranks a new
// slot once per list and appends it to an unordered tail, the next
// walk merges the tail in, and dead slots are passed over and
// compacted away lazily. A keyed request's full scan walks its list in place of
// the rank pass and the sort.
//
// A key is exact only if the residual's value depends on the offer
// alone. Residuals that read the clock or the random stream, hold a
// nested ad, or read the request itself (self.X, or a bare name the
// request defines) have no key. An offer that defines an attribute
// the residual reads by an expression (which may read other., that is
// the request) has no place on the list: the list holds its slot
// apart and every walk ranks it against the request and merges it in
// by rank, as the index keeps such offers apart in postings.exprs.
//
// Requests without a key, and candidate sets too small to repay a walk
// down a list as long as the pool (rankCostProbes), keep the rank
// pass. An index keeps at most maxRankLists lists, evicting the least
// recently used one for a new key. An index rebuild drops the lists;
// each key's next scan builds its list again.

import (
	"cmp"
	"slices"

	"repro/internal/classad"
)

// maxRankLists bounds the rank lists one offer index keeps.
const maxRankLists = 8

// rankCostProbes is one EvalRank's cost in list entries a walk passes
// over (a bitset probe and an availability check each), rounded down
// to a power of two: Figure 2's Rank against a machine ad takes some
// 750 ns, an entry some 9 ns, on a 2-vCPU host. A walk may pass the
// whole list, one entry per live offer, so a request whose candidates
// number fewer than the live offers over rankCostProbes ranks them
// faster than it walks.
const rankCostProbes = 64

// rankKey is a request's Rank residual when the residual's value
// depends on the offer alone.
type rankKey struct {
	key      string       // the residual's source form: the lists' key
	residual classad.Expr // Rank partially evaluated against the request
	reads    []string     // the folded names of the offer attributes it reads
}

// reqPlan is what a request's scan derives from the request ad alone,
// once per advertisement (Incremental.applyLocked) instead of once per
// scan. PartialEval folds no clock or random read (a call to such a
// builtin, or a nested ad, stays symbolic), and an index test needs a
// literal bound, so the tests do not go stale as the clock moves.
type reqPlan struct {
	tests []reqTest
	unsat bool
	rank  *rankKey // nil: the request takes the rank pass
}

// planRequest derives req's plan; keyed says whether it may get a
// rank key.
func planRequest(req *classad.Ad, env *classad.Env, keyed bool) reqPlan {
	p := reqPlan{}
	p.tests, p.unsat = IndexableTests(req, env)
	if keyed {
		p.rank = rankKeyOf(req, env)
	}
	return p
}

// rankKeyOf returns req's rank key, or nil when its Rank residual
// reads the environment (it calls classad.ImpureBuiltin, or holds a
// nested ad, whose attributes Walk does not visit) or the request.
// Every name the residual still reads is the offer's: a name the
// request defines by a literal, or by anything ground, was folded by
// PartialEval, so one left standing means the request itself.
func rankKeyOf(req *classad.Ad, env *classad.Env) *rankKey {
	e, ok := req.LookupKey(classad.Fold(classad.AttrRank))
	if !ok {
		return nil
	}
	res := classad.PartialEval(e, req, env)
	var reads []string
	pure := true
	classad.Walk(res, func(n classad.Expr) bool {
		if !pure {
			return false
		}
		switch info := classad.Inspect(n); info.Kind {
		case classad.KindCall:
			pure = !classad.ImpureBuiltin(info.Name)
		case classad.KindAd:
			pure = false
		case classad.KindAttrRef:
			key := classad.Fold(info.Name)
			if _, mine := req.LookupKey(key); info.Scope == classad.ScopeSelf || info.Scope == classad.ScopeNone && mine {
				pure = false
			} else if !slices.Contains(reads, key) {
				reads = append(reads, key)
			}
		}
		return pure
	})
	if !pure {
		return nil
	}
	return &rankKey{key: res.String(), residual: res, reads: reads}
}

// rankEntry is one offer on a rank list: 16 bytes.
type rankEntry struct {
	rank float64
	slot int
}

// rankList is one key's rank order over the index's slots. Every slot
// filed since the list was built is in exactly one of entries and
// exprs, dead ones until the next compaction.
//
// An equal-rank run is in view-position order, which the walk's skip
// of losing twins needs to try one twin per run (scan.go). Positions
// shift as offers come and go, but two offers that both stay never
// swap, so the sorted prefix stays sorted; only the tail is placed.
type rankList struct {
	key string
	// self is an ad whose Rank is the residual: EvalRank(self, offer)
	// is every keyed request's rank of an offer that defines each read
	// attribute by a literal, or not at all.
	self  *classad.Ad
	env   *classad.Env
	reads []string
	// entries[:sorted] is by rank descending, then view position; the
	// rest is the unordered tail of slots filed since the last walk.
	entries []rankEntry
	sorted  int
	// exprs holds the slots that define a read attribute by an
	// expression; each walk ranks them against its request.
	exprs []int
}

// file ranks one new slot into the list, reporting whether that took
// an EvalRank.
func (l *rankList) file(slot int, off *classad.Ad) bool {
	for _, key := range l.reads {
		if e, ok := off.LookupKey(key); ok && classad.Inspect(e).Kind != classad.KindLiteral {
			l.exprs = append(l.exprs, slot)
			return false
		}
	}
	l.entries = append(l.entries, rankEntry{classad.EvalRank(l.self, off, l.env), slot})
	return true
}

// settle readies l for a walk over a view whose positions posOfSlot
// gives: it drops the tail's dead slots and merges the rest into the
// sorted prefix by rank descending, then position. A dead slot of the
// prefix has no position, so the merge moves it below every newcomer
// it meets rather than compare it. The caller holds ix.mu.
func (ix *OfferIndex) settle(l *rankList, posOfSlot []int) {
	tail := slices.DeleteFunc(l.entries[l.sorted:], func(e rankEntry) bool { return !ix.live[e.slot] })
	l.entries = l.entries[:l.sorted+len(tail)]
	l.sorted = settleTail(l.entries, l.sorted, func(a, b rankEntry) int {
		if !ix.live[a.slot] { // a is of the prefix, b a newcomer
			return 1
		}
		return cmp.Or(cmp.Compare(b.rank, a.rank), cmp.Compare(posOfSlot[a.slot], posOfSlot[b.slot]))
	})
}

// compact drops l's dead slots once they are an eighth of the list,
// keeping the sorted prefix apart from the tail. The caller holds
// ix.mu.
func (ix *OfferIndex) compact(l *rankList) {
	if n := len(l.entries) + len(l.exprs); 8*(n-ix.nlive) <= n {
		return
	}
	dead := func(slot int) bool { return !ix.live[slot] }
	deadEntry := func(e rankEntry) bool { return dead(e.slot) }
	sorted := len(slices.DeleteFunc(l.entries[:l.sorted], deadEntry))
	tail := slices.DeleteFunc(l.entries[l.sorted:], deadEntry)
	l.entries, l.sorted = append(l.entries[:sorted], tail...), sorted
	l.exprs = slices.DeleteFunc(l.exprs, dead)
}

// rankList returns the rank list of key k for a request with n live
// candidates, building it, ranked under env, on the key's first scan,
// or nil when n is too small to repay a walk. The list stays valid
// until the index next changes; walkRankList settles it.
func (ix *OfferIndex) rankList(k *rankKey, n int, env *classad.Env) *rankList {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if n == 0 || n*rankCostProbes < ix.nlive {
		return nil
	}
	// ix.ranks runs from the most recently used list to the least.
	i := slices.IndexFunc(ix.ranks, func(l *rankList) bool { return l.key == k.key })
	var l *rankList
	if i >= 0 {
		l = ix.ranks[i]
		ix.ranks = slices.Delete(ix.ranks, i, i+1)
	} else {
		if len(ix.ranks) == maxRankLists {
			ix.ranks = ix.ranks[:maxRankLists-1]
		}
		self := classad.NewAd()
		self.Set(classad.AttrRank, k.residual)
		l = &rankList{key: k.key, self: self, env: env, reads: k.reads}
		for slot, off := range ix.offers {
			if ix.live[slot] && l.file(slot, off) {
				ix.rankEvals++
			}
		}
	}
	ix.ranks = slices.Insert(ix.ranks, 0, l)
	ix.compact(l)
	return l
}

// takeRankEvals returns the EvalRanks the rank lists spent since the
// last call.
func (ix *OfferIndex) takeRankEvals() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := ix.rankEvals
	ix.rankEvals = 0
	return n
}

// keepStaleRanks is IncrementalHooks.SkipRankListUpdate's fault: slot
// to, just added for the new content of the offer in slot from, takes
// from's rank on every list, as if the change had never been ranked.
func (ix *OfferIndex) keepStaleRanks(from, to int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, l := range ix.ranks {
		old := slices.IndexFunc(l.entries, func(e rankEntry) bool { return e.slot == from })
		i := slices.IndexFunc(l.entries, func(e rankEntry) bool { return e.slot == to })
		if old >= 0 && i >= 0 {
			l.entries[i].rank = l.entries[old].rank
		}
	}
}

// walkRankList is the full scan of a keyed request: scanOffers' walk,
// fed from list l in place of a rank pass and a sort. It passes over
// entries whose slot set does not admit (a nil set admits every slot),
// is dead, or holds an offer already taken; the offers l ranks per
// request are ranked against req here, the scan's only EvalRanks, and
// join the order at their rank and position. posOfSlot maps slots to
// positions in offers.
func (ev evaluator) walkRankList(req *classad.Ad, offers []*classad.Ad, ix *OfferIndex, l *rankList, set []uint64, posOfSlot []int, avail []bool) (candidate, scanCost) {
	ix.mu.Lock()
	ix.settle(l, posOfSlot)
	ix.mu.Unlock()
	admit := func(slot int) (pos int, ok bool) {
		if !ix.live[slot] || set != nil && set[slot/64]&(1<<(uint(slot)%64)) == 0 {
			return 0, false
		}
		pos = posOfSlot[slot]
		return pos, avail[pos]
	}
	var exprs []ranked
	for _, slot := range l.exprs {
		if pos, ok := admit(slot); ok {
			exprs = append(exprs, ranked{pos, classad.EvalRank(req, offers[pos], ev.env)})
		}
	}
	slices.SortFunc(exprs, byRank)
	cost := scanCost{ranked: len(exprs), workers: 1}

	entries, buf := l.entries, (*ev.order)[:0]
	var head ranked // the next entry the request admits, when have
	have := false
	next := func(n int) []ranked {
		buf = buf[:0]
		for len(buf) < n {
			for !have && len(entries) > 0 {
				head.index, have = admit(entries[0].slot)
				head.rank = entries[0].rank
				entries = entries[1:]
			}
			switch {
			case have && (len(exprs) == 0 || byRank(head, exprs[0]) < 0):
				buf, have = append(buf, head), false
			case len(exprs) > 0:
				buf, exprs = append(buf, exprs[0]), exprs[1:]
			default:
				return buf
			}
		}
		return buf
	}
	var best candidate
	best, cost.tried = ev.walkOrder(req, offers, candidate{index: -1}, next)
	*ev.order = buf[:0]
	return best, cost
}
