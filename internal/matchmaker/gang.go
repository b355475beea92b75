package matchmaker

import (
	"fmt"
	"sort"

	"repro/internal/classad"
)

// Co-allocation via nested classads (paper §3.1: ads "can be
// arbitrarily nested, leading to a natural language for expressing
// resource aggregates or co-allocation requests").
//
// A gang request is a customer ad whose Gang attribute is a list of
// nested classads, each a sub-request with its own Constraint and
// Rank. The gang is served only if every sub-request can be introduced
// to a distinct offer with both sides' constraints satisfied — the
// all-or-nothing semantics co-allocation needs (e.g. a job that
// requires a workstation and a tape drive simultaneously).

// AttrGang is the attribute holding the list of sub-request ads.
const AttrGang = "Gang"

// IsGang reports whether the ad carries a gang request.
func IsGang(ad *classad.Ad) bool {
	_, ok := ad.Lookup(AttrGang)
	return ok
}

// GangSubRequests extracts the sub-request ads of a gang request. Each
// sub-request inherits the parent's Owner (for fair-share accounting
// and owner policies) unless it sets its own.
func GangSubRequests(req *classad.Ad) ([]*classad.Ad, error) {
	v := req.Eval(AttrGang)
	list, ok := v.ListVal()
	if !ok {
		return nil, fmt.Errorf("matchmaker: %s attribute is %s, want a list of classads", AttrGang, v.Type())
	}
	subs := make([]*classad.Ad, 0, len(list))
	for i, el := range list {
		sub, ok := el.AdVal()
		if !ok {
			return nil, fmt.Errorf("matchmaker: %s[%d] is %s, want a classad", AttrGang, i, el.Type())
		}
		c := sub.Copy()
		for _, inherited := range []string{classad.AttrOwner, classad.AttrContact} {
			if _, has := c.Lookup(inherited); has {
				continue
			}
			if v, ok := req.Eval(inherited).StringVal(); ok {
				c.SetString(inherited, v)
			}
		}
		subs = append(subs, c)
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("matchmaker: empty %s list", AttrGang)
	}
	return subs, nil
}

// GangMatch is the assignment produced for a gang request: one offer
// index per sub-request, in sub-request order.
type GangMatch struct {
	// SubRequests are the extracted sub-request ads.
	SubRequests []*classad.Ad
	// Offers[i] is the index (into the offers slice passed to
	// MatchGang) assigned to SubRequests[i].
	Offers []int
}

// gangIndexThreshold is the offer count above which MatchGang prunes
// each sub-request's candidate enumeration through an offer index.
const gangIndexThreshold = 256

// MatchGang finds an all-or-nothing assignment of distinct offers to
// the gang's sub-requests, preferring higher sub-request ranks. It
// returns ok=false if no complete assignment exists.
//
// The search is exact: candidates are enumerated per sub-request,
// sub-requests are ordered most-constrained-first, and assignment
// backtracks on conflict. Pools are small relative to gang sizes in
// practice, and the candidate pre-filter keeps the search shallow.
// Against large pools the enumeration itself is pruned through the
// offer index, which never drops a viable candidate.
func MatchGang(req *classad.Ad, offers []*classad.Ad, env *classad.Env) (GangMatch, bool) {
	var ix *OfferIndex
	if len(offers) >= gangIndexThreshold {
		ix = NewOfferIndex(offers)
	}
	subs, err := GangSubRequests(req)
	if err != nil {
		return GangMatch{}, false
	}
	// Enumerate candidates per sub-request, rank-sorted.
	type cand struct {
		offer int
		rank  float64
	}
	cands := make([][]cand, len(subs))
	for si, sub := range subs {
		// pool is the candidate offer indices for this sub-request:
		// nil means the index had nothing to prune on, so scan all.
		var pool []int
		if ix != nil {
			if c, indexed := ix.Candidates(sub, env); indexed {
				pool = c
			}
		}
		consider := func(oi int) {
			res := classad.MatchEnv(sub, offers[oi], env)
			if res.Matched {
				cands[si] = append(cands[si], cand{oi, res.LeftRank})
			}
		}
		if pool != nil {
			for _, oi := range pool {
				consider(oi)
			}
		} else {
			for oi := range offers {
				consider(oi)
			}
		}
		sort.SliceStable(cands[si], func(a, b int) bool {
			return cands[si][a].rank > cands[si][b].rank
		})
		if len(cands[si]) == 0 {
			return GangMatch{SubRequests: subs}, false
		}
	}
	// Most-constrained-variable order.
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(cands[order[a]]) < len(cands[order[b]])
	})

	assigned := make([]int, len(subs))
	for i := range assigned {
		assigned[i] = -1
	}
	used := make(map[int]bool)
	var search func(k int) bool
	search = func(k int) bool {
		if k == len(order) {
			return true
		}
		si := order[k]
		for _, c := range cands[si] {
			if used[c.offer] {
				continue
			}
			used[c.offer] = true
			assigned[si] = c.offer
			if search(k + 1) {
				return true
			}
			used[c.offer] = false
			assigned[si] = -1
		}
		return false
	}
	if !search(0) {
		return GangMatch{SubRequests: subs}, false
	}
	return GangMatch{SubRequests: subs, Offers: assigned}, true
}
