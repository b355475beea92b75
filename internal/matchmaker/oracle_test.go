package matchmaker

// The from-scratch reference the differential suites compare the
// engine against: order the requests, evaluate every request against
// every offer, pick with better(). No index, no sharding, no
// aggregation, no instrumentation, no state — slow and obviously
// right. It is also the only home of the linear scan and of first-fit,
// the rank-selection ablation production no longer carries.

import (
	"sort"

	"repro/internal/classad"
)

// naiveOutcome is the oracle's verdict on one request, in service
// order: the match (Offer nil when unmatched) or the reason for none.
type naiveOutcome struct {
	Match
	Reason string
}

// naiveNegotiate serves requests in slice order — stably reordered by
// usage (lightest customer first) under cfg.FairShare — against offers,
// ties going to the earliest offer in slice order. firstFit skips rank
// maximization and takes the earliest compatible offer. It charges
// nothing.
func naiveNegotiate(cfg Config, firstFit bool, usage *PriorityTable, requests, offers []*classad.Ad) []naiveOutcome {
	order := make([]int, len(requests))
	for i := range order {
		order[i] = i
	}
	if cfg.FairShare {
		sort.SliceStable(order, func(a, b int) bool {
			return usage.Effective(owner(requests[order[a]])) < usage.Effective(owner(requests[order[b]]))
		})
	}
	taken := make([]bool, len(offers))
	out := make([]naiveOutcome, 0, len(requests))
	for _, ri := range order {
		req := requests[ri]
		best := candidate{index: -1}
		compatible := false
		for oi, off := range offers {
			res := classad.MatchEnv(req, off, cfg.Env)
			if !res.Matched {
				continue
			}
			compatible = true
			if taken[oi] {
				continue
			}
			c := candidate{oi, res.LeftRank, res.RightRank, offerClaimed(off)}
			if best.index < 0 || (!firstFit && better(c, best)) {
				best = c
			}
		}
		o := naiveOutcome{Match: Match{Request: req}}
		switch {
		case best.index >= 0:
			taken[best.index] = true
			o.Offer, o.RequestRank, o.OfferRank = offers[best.index], best.reqRank, best.offRank
		case len(offers) == 0:
			o.Reason = ReasonNoOffers
		case compatible:
			o.Reason = ReasonOutranked
		default:
			o.Reason = ReasonConstraintFailed
		}
		out = append(out, o)
	}
	return out
}

// naiveMatches is the oracle's assignment alone, shaped like
// Negotiate's result.
func naiveMatches(cfg Config, requests, offers []*classad.Ad) []Match {
	var out []Match
	for _, o := range naiveNegotiate(cfg, false, NewPriorityTable(), requests, offers) {
		if o.Offer != nil {
			out = append(out, o.Match)
		}
	}
	return out
}
