package matchmaker

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/classad"
)

// rankWorld is an offer index over a view, kept the way the engine
// keeps them: view positions, each offer's slot, Remove+Add on a
// change, and a rebuild once dead slots outnumber live ones.
type rankWorld struct {
	ix    *OfferIndex
	view  []*classad.Ad
	slots []int
	// rebuilds counts rebuilds that dropped rank lists.
	rebuilds int
}

func newRankWorld(view []*classad.Ad) *rankWorld {
	w := &rankWorld{view: view, slots: make([]int, len(view))}
	w.rebuild()
	return w
}

// rebuild is the engine's index rebuild: a fresh index, without lists.
func (w *rankWorld) rebuild() {
	w.ix = NewOfferIndex(w.view)
	for i := range w.slots {
		w.slots[i] = i
	}
}

func (w *rankWorld) change(pos int, ad *classad.Ad) {
	w.ix.Remove(w.slots[pos])
	w.slots[pos] = w.ix.Add(ad)
	w.view[pos] = ad
}

func (w *rankWorld) remove(pos int) {
	w.ix.Remove(w.slots[pos])
	w.view = slices.Delete(w.view, pos, pos+1)
	w.slots = slices.Delete(w.slots, pos, pos+1)
}

func (w *rankWorld) add(ad *classad.Ad) {
	w.view = append(w.view, ad)
	w.slots = append(w.slots, w.ix.Add(ad))
}

func (w *rankWorld) maybeReindex() {
	if 2*len(w.view) <= len(w.ix.offers) {
		if len(w.ix.ranks) > 0 {
			w.rebuilds++
		}
		w.rebuild()
	}
}

func (w *rankWorld) positions() []int {
	posOfSlot := make([]int, len(w.ix.offers))
	for pos, s := range w.slots {
		posOfSlot[s] = pos
	}
	return posOfSlot
}

// rankPool is trickyPool plus offers whose Score, which the requests'
// Ranks read, is an expression reading the request: a list holds those
// apart and ranks them per request.
func rankPool(r *rand.Rand, n int) []*classad.Ad {
	pool := trickyPool(r, n)
	for _, off := range pool {
		if r.Intn(6) == 0 {
			_ = off.SetExprString("Score", "other.Prio * 2")
		}
	}
	return pool
}

// Ranks the request's own attributes, the clock or the random stream
// decide: none may get a key.
var unkeyedRanks = []string{
	"time() - other.Memory",
	"random() * other.Memory",
	"other.Memory + Slack",        // Slack = other.Memory: the request's own expression
	"self.Missing + other.Memory", // self. never falls back to the offer
	"[ t = time() ].t - other.Memory",
	"other.Memory + Stamp", // Stamp = [ t = time() ].t
	"[ a = other.Memory ].a",
}

// rankRequests builds requests whose Ranks are keyed (offer-only
// residuals, among them more distinct ones than an index keeps lists
// for, drawn from a range that moves with phase) or unkeyed.
func rankRequests(r *rand.Rand, n, phase int) []*classad.Ad {
	out := trickyRequests(r, n)
	for _, req := range out {
		req.SetInt("Prio", int64(r.Intn(6)))
		_ = req.SetExprString("Slack", "other.Memory")
		_ = req.SetExprString("Stamp", "[ t = time() ].t")
		keyed := []string{
			"other.Memory", "other.Score", "Score", "0 - other.Memory", "0/0",
			"other.Memory / 32 + other.Score", "self.Memory * other.Memory",
			fmt.Sprintf("other.Memory + %d", 16*phase+r.Intn(16)),
		}
		all := append(keyed, unkeyedRanks...)
		_ = req.SetExprString("Rank", all[r.Intn(len(all))])
	}
	return out
}

// TestQuickRankListMatchesRankPass: over churned pools, index rebuilds
// and requests of more distinct keys than an index keeps lists for, a
// keyed request's walk down its rank list picks what the unordered
// oracle (scanRange) picks and tries exactly the pairs the rank pass
// tries; a Rank that reads the clock, the random stream or the request
// gets no key, also through a nested ad. The run must walk lists, rank
// expression-valued offers per request, evict a list and walk lists
// rebuilt after an index rebuild, or it exercised too little.
func TestQuickRankListMatchesRankPass(t *testing.T) {
	withProcs(t, 1)
	env := classad.FixedEnv(1_000_000, 3)
	ev := evaluator{env: env, order: new([]ranked)}
	var walks, exprRanked, evictions, rebuilds int
	keys := map[string]bool{}
	rounds, maxCount := 60, 6
	if testing.Short() {
		maxCount = 2
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := newRankWorld(rankPool(r, 200+r.Intn(200)))
		for round := 0; round < rounds; round++ {
			for k := 0; k < 10; k++ {
				switch pos := r.Intn(len(w.view)); r.Intn(3) {
				case 0:
					w.change(pos, rankPool(r, 1)[0])
				case 1:
					w.remove(pos)
				default:
					w.add(rankPool(r, 1)[0])
				}
			}
			w.maybeReindex()
			avail := make([]bool, len(w.view))
			for i := range avail {
				avail[i] = r.Intn(5) != 0
			}
			for _, req := range rankRequests(r, 20, 2*round/rounds) {
				plan := planRequest(req, env, true)
				rank, _ := req.Lookup("Rank")
				if slices.Contains(unkeyedRanks, rank.String()) != (plan.rank == nil) {
					t.Errorf("seed %d: Rank %s: key %v", seed, rank, plan.rank)
					return false
				}
				if plan.rank == nil {
					continue
				}
				slots, indexed := w.ix.candidatesFor(plan.tests, plan.unsat)
				n := len(w.view)
				if indexed {
					n = len(slots)
				}
				evicts := len(w.ix.ranks) == maxRankLists &&
					!slices.ContainsFunc(w.ix.ranks, func(l *rankList) bool { return l.key == plan.rank.key })
				list := w.ix.rankList(plan.rank, n, env)
				if list == nil {
					continue
				}
				if evicts {
					evictions++
				}
				keys[list.key] = true
				var set []uint64
				var cand []int
				posOfSlot := w.positions()
				if indexed {
					set = w.ix.acc
					cand = make([]int, len(slots))
					for i, s := range slots {
						cand[i] = posOfSlot[s]
					}
				}
				got, cost := ev.walkRankList(req, w.view, w.ix, list, set, posOfSlot, avail)
				want, _ := scanRange(ev, req, w.view, avail, candidate{index: -1})
				_, pass := ev.scanOffers(req, w.view, cand, avail, candidate{index: -1})
				if got != want || cost.tried != pass.tried {
					t.Errorf("seed %d round %d: walk picks %+v after %d tries; oracle %+v, rank pass %d tries\nrequest %s",
						seed, round, got, cost.tried, want, pass.tried, req)
					return false
				}
				walks++
				if cost.ranked > 0 {
					exprRanked++
				}
			}
		}
		rebuilds += w.rebuilds
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d walks, %d ranking expression-valued offers, %d evictions, %d keys ever listed, %d rebuilds dropping lists",
		walks, exprRanked, evictions, len(keys), rebuilds)
	if walks == 0 || exprRanked == 0 || evictions == 0 || len(keys) <= maxRankLists || rebuilds == 0 {
		t.Fatalf("%d walks, %d ranking expression-valued offers, %d evictions, %d keys ever listed, %d rebuilds dropping lists; each must occur (keys above %d)",
			walks, exprRanked, evictions, len(keys), rebuilds, maxRankLists)
	}
}

// TestRankListMemory pins the list's footprint: an entry is 16 bytes,
// and a walk leaves dead slots below an eighth of the list.
func TestRankListMemory(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	w := newRankWorld(rankPool(r, 400))
	key := rankKeyOf(mustAd(t, `[ Rank = other.Memory ]`), nil)
	for i := 0; i < 300; i++ {
		w.change(r.Intn(len(w.view)), rankPool(r, 1)[0])
		l := w.ix.rankList(key, w.ix.nlive, nil)
		if n := len(l.entries) + len(l.exprs); 8*(n-w.ix.nlive) > n {
			t.Fatalf("change %d: list holds %d slots for %d live offers", i, n, w.ix.nlive)
		}
	}
	if got := unsafe.Sizeof(rankEntry{}); got != 16 {
		t.Fatalf("rankEntry is %d bytes", got)
	}
}

// TestPlanFollowsClock: a constraint that reads the clock through a
// nested ad, directly or through the request's own attribute, gets no
// index test frozen at the clock of the advertisement, and a Rank that
// does so gets no key.
func TestPlanFollowsClock(t *testing.T) {
	now := int64(100)
	env := &classad.Env{Now: func() int64 { return now }, Rand: func() float64 { return 0 }}
	ix := NewOfferIndex([]*classad.Ad{mustAd(t, `[ Memory = 150 ]`)})
	for _, src := range []string{
		`[ Constraint = other.Memory <= [ t = time() ].t; Rank = [ t = time() ].t - other.Memory ]`,
		`[ Constraint = other.Memory <= Deadline; Deadline = [ t = time() ].t; Rank = Deadline - other.Memory ]`,
	} {
		now = 100
		req := mustAd(t, src)
		plan := planRequest(req, env, true)
		if plan.rank != nil {
			t.Errorf("%s: Rank keyed as %s", src, plan.rank.key)
		}
		now = 200
		if cand, indexed := ix.candidatesFor(plan.tests, plan.unsat); indexed && len(cand) != 1 {
			t.Errorf("%s at time 200: candidates %v, want the offer", src, cand)
		}
	}
}
