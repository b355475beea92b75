package matchmaker

import (
	"strings"

	"repro/internal/classad"
)

// Ad aggregation (paper §5, future work): "lists of classads
// representing resources and customers exhibit a high degree of
// regularity ... We are currently investigating techniques for
// exploiting this regularity, and automatically aggregating classads
// so that matches may be performed in groups."
//
// The implementation groups offers into equivalence classes by a
// structural signature — the canonical unparse of the ad with
// identity-only attributes removed — and evaluates each request
// against one representative per class instead of every offer. When a
// pool has high value regularity (many identical workstations), a
// negotiation cycle's matching work drops from O(offers) to
// O(classes) per request.
//
// The optimization is sound exactly when constraints and ranks do not
// discriminate between members of a class, i.e. they do not reference
// the excluded identity attributes. The engine checks rather than
// assumes: identity attributes some expression of the wake's ads reads
// (referencedIdentity) stay in the signature, so a pool that matches on
// Name degrades to one class per machine instead of matching wrongly.

// identityAttrs are excluded from the aggregation signature unless
// referenced: they identify an individual resource or queue entry
// without describing its capability or requirements.
var identityAttrs = map[string]bool{
	classad.Fold(classad.AttrName):    true,
	classad.Fold(classad.AttrContact): true,
	classad.Fold(classad.AttrTicket):  true,
	"machine":                         true,
	// Job-side identity: queue position, not requirements.
	"jobid":   true,
	"cluster": true,
	"process": true,
	"qdate":   true,
}

// Signature returns the aggregation key of an ad: attributes sorted
// case-insensitively, identity attributes removed, expressions in
// canonical unparsed form.
func Signature(ad *classad.Ad) string { return signature(ad, nil) }

// signature is Signature with the identity attributes in keep (folded
// names) left in.
func signature(ad *classad.Ad, keep map[string]bool) string {
	var b strings.Builder
	for _, n := range ad.SortedNames() {
		f := classad.Fold(n)
		if identityAttrs[f] && !keep[f] {
			continue
		}
		e, _ := ad.Lookup(n)
		b.WriteString(f)
		b.WriteByte('=')
		b.WriteString(e.String())
		b.WriteByte(';')
	}
	return b.String()
}

// referencedIdentity returns the identity attributes that some
// expression of some ad in pools reads, under any scope: a request
// constraint on other.Name tells two otherwise identical machines
// apart, a machine Rank on other.JobId two otherwise identical jobs,
// so neither attribute may be dropped from this wake's signatures.
func referencedIdentity(pools ...[]*classad.Ad) map[string]bool {
	keep := make(map[string]bool)
	var visitAd func(ad *classad.Ad)
	visit := func(e classad.Expr) bool {
		switch info := classad.Inspect(e); info.Kind {
		case classad.KindAttrRef:
			if f := classad.Fold(info.Name); identityAttrs[f] {
				keep[f] = true
			}
		case classad.KindAd:
			visitAd(info.Ad) // Walk stops at nested ads
		}
		return true
	}
	visitAd = func(ad *classad.Ad) {
		for _, n := range ad.Names() {
			e, _ := ad.Lookup(n)
			classad.Walk(e, visit)
		}
	}
	for _, ads := range pools {
		for _, ad := range ads {
			visitAd(ad)
		}
	}
	return keep
}

// aggregation holds the equivalence classes of one wake's offers and
// the candidate classes already computed for its requests.
type aggregation struct {
	groups [][]int // offer indices per class, in first-seen order
	// keep is the referenced identity attributes, which stay in every
	// signature of the wake.
	keep map[string]bool
	// memo maps a request signature to its candidate classes, so a
	// batch of identical jobs costs one sweep of the classes.
	memo map[string][]classCand
}

// aggregate partitions offers into classes by signature. requests are
// the ads the classes will be matched against: their expressions, like
// the offers' own, decide which identity attributes still matter.
func aggregate(offers, requests []*classad.Ad) *aggregation {
	a := &aggregation{
		keep: referencedIdentity(offers, requests),
		memo: make(map[string][]classCand),
	}
	index := make(map[string]int)
	for i, off := range offers {
		sig := signature(off, a.keep)
		gi, ok := index[sig]
		if !ok {
			gi = len(a.groups)
			index[sig] = gi
			a.groups = append(a.groups, nil)
		}
		a.groups[gi] = append(a.groups[gi], i)
	}
	return a
}

// classCand is one offer class a request is compatible with. rep is
// the evaluation against the class's first member: members are
// identical modulo unreferenced identity attributes (State, which
// better()'s claimed tie-break reads, is part of the signature), so
// its ranks and claimed status stand for the whole class.
type classCand struct {
	group int
	rep   candidate
}

// candidates returns the classes req is compatible with — memoized by
// the request's own signature — and how many representatives it had to
// evaluate to find out.
func (a *aggregation) candidates(ev evaluator, req *classad.Ad, offers []*classad.Ad) (classes []classCand, scanned int) {
	sig := signature(req, a.keep)
	if classes, seen := a.memo[sig]; seen {
		return classes, 0
	}
	for gi, group := range a.groups {
		// Only a compatible class bids, so its request rank waits for
		// the match.
		if c, ok := ev.try(req, offers, group[0], 0); ok {
			c.reqRank = classad.EvalRank(req, offers[group[0]], ev.env)
			classes = append(classes, classCand{group: gi, rep: c})
		}
	}
	a.memo[sig] = classes
	return classes, len(a.groups)
}

// pick selects the offer for one request from its candidate classes,
// reproducing the scan's choice exactly — better() is the shared
// selection rule, and each class bids its earliest available member.
func (a *aggregation) pick(classes []classCand, available []bool) candidate {
	best := candidate{index: -1}
	for _, cc := range classes {
		c := cc.rep
		if c.index = a.firstAvailable(cc.group, available); c.index < 0 {
			continue
		}
		if best.index < 0 || better(c, best) {
			best = c
		}
	}
	return best
}

// firstAvailable returns the smallest available offer index in a
// class, or -1.
func (a *aggregation) firstAvailable(group int, available []bool) int {
	for _, oi := range a.groups[group] {
		if available[oi] {
			return oi
		}
	}
	return -1
}

// AggregateClasses exposes the class decomposition for tools and
// benchmarks: it returns the offer indices of each class.
func AggregateClasses(offers []*classad.Ad) [][]int {
	return aggregate(offers, nil).groups
}
