// Package matchmaker implements the matchmaking algorithm of paper
// §3.2/§4: the periodic negotiation cycle that pairs customer request
// ads with compatible provider ads, ranks candidates, enforces a fair
// matching policy from past resource usage, and — per the paper's
// future-work section — aggregates regular ads for group matching,
// diagnoses unsatisfiable constraints, and services co-allocation
// (gang) requests expressed as nested classads.
//
// The matchmaker is deliberately stateless with respect to matches: a
// match is an introduction, not an allocation, and nothing here needs
// to survive a restart except the (advisory) usage history used for
// fairness.
package matchmaker

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/classad"
	"repro/internal/obs"
)

// Match is one pairing produced by a negotiation cycle. It carries
// both ads so the matchmaking protocol can forward each party the
// other's ad (paper §3.2 step 3).
type Match struct {
	// Request is the customer ad; Offer is the provider ad.
	Request, Offer *classad.Ad
	// RequestRank is the request's Rank of the offer (the primary
	// selection key); OfferRank is the offer's Rank of the request
	// (the tie-breaker).
	RequestRank, OfferRank float64
	// Trace is the request's causal trace ID (the job ad's TraceId
	// attribute) and Span the matchmaker's negotiate-span ID, for the
	// notifier to propagate into MATCH envelopes. Both empty on
	// untraced or uninstrumented matches.
	Trace, Span string
}

// Config tunes a negotiation cycle. How offers are scanned is not
// configurable: every cycle prunes through the offer index (index.go)
// and shards large candidate lists across the CPUs (scan.go).
type Config struct {
	// Env supplies time and randomness to constraint evaluation; nil
	// means the process default.
	Env *classad.Env
	// FairShare orders customers by accumulated usage (lightest
	// first) instead of submission order.
	FairShare bool
	// Aggregate prunes by equivalence classes of offers instead of by
	// the offer index (group matching, paper §5 future work). Results
	// are identical either way (property-tested); the work per request
	// shrinks to one evaluation per class when offers are
	// value-regular, where the index has nothing to prune.
	Aggregate bool
}

// Matchmaker runs negotiation cycles. The zero value is usable; usage
// history accumulates across cycles when fair share is on.
type Matchmaker struct {
	cfg   Config
	usage *PriorityTable

	// Observability hooks; nil (no-op) until Instrument is called.
	events      *obs.Spans
	spans       *obs.Spans
	forensics   *Forensics
	mMatches    *obs.Counter
	mRejNone    *obs.Counter // no offers in the pool at all
	mRejConstr  *obs.Counter // no offer satisfies the bilateral constraints
	mRejTaken   *obs.Counter // compatible offers existed but were all taken
	mIdxCand    *obs.Counter // offers the index admitted as candidates
	mIdxPruned  *obs.Counter // offers the index proved incompatible unseen
	mIdxMisses  *obs.Counter // requests with no indexable conjunct (full scan)
	hNegotiate  *obs.Histogram
	hScanned    *obs.Histogram
	hScanFanout *obs.Histogram // workers used per request scan
}

// Rejection reasons, mirroring the categories of Analyze: the pool is
// empty, the pool cannot serve the request, or the pool could but
// higher-priority requests took every compatible offer this cycle.
const (
	ReasonNoOffers         = "no-offers"
	ReasonConstraintFailed = "constraint-failed"
	ReasonOutranked        = "outranked"
)

// New returns a matchmaker with the given configuration.
func New(cfg Config) *Matchmaker {
	return &Matchmaker{cfg: cfg, usage: NewPriorityTable()}
}

// Instrument routes negotiation activity into o:
// matchmaker_matches_total and the per-reason rejection counters
// (matchmaker_rejected_{no_offers,constraint,outranked}_total),
// negotiation wall time (matchmaker_negotiate_seconds), offers whose
// constraints a request's scan tried (matchmaker_offers_scanned), the
// offer index's work (matchmaker_index_candidates_total /
// matchmaker_index_pruned_total / matchmaker_index_unindexed_total),
// and the scan's rank-pass fan-out (matchmaker_scan_workers). Each
// match and rejection also lands in the log ring under the request's
// trace; requests whose ad carries a TraceId get a negotiate span in
// the span ring. Instrumentation also switches on
// negotiation forensics — a per-request rejection ledger retained in a
// bounded store and served at /why?request= on o's debug endpoint.
// Call before the first cycle.
func (m *Matchmaker) Instrument(o *obs.Obs) {
	reg := o.Registry()
	m.events = o.Events()
	m.spans = o.Spans()
	m.forensics = NewForensics()
	o.Handle("/why", func(q map[string][]string) (any, error) {
		var request string
		if vs := q["request"]; len(vs) > 0 {
			request = vs[0]
		}
		if request == "" {
			return map[string]any{"requests": m.forensics.Requests()}, nil
		}
		r, ok := m.forensics.Lookup(request)
		if !ok {
			return nil, fmt.Errorf("no forensics recorded for request %q", request)
		}
		return r, nil
	})
	m.mMatches = reg.Counter("matchmaker_matches_total")
	m.mRejNone = reg.Counter("matchmaker_rejected_no_offers_total")
	m.mRejConstr = reg.Counter("matchmaker_rejected_constraint_total")
	m.mRejTaken = reg.Counter("matchmaker_rejected_outranked_total")
	m.mIdxCand = reg.Counter("matchmaker_index_candidates_total")
	m.mIdxPruned = reg.Counter("matchmaker_index_pruned_total")
	m.mIdxMisses = reg.Counter("matchmaker_index_unindexed_total")
	m.hNegotiate = reg.Histogram("matchmaker_negotiate_seconds", obs.DurationBuckets)
	m.hScanned = reg.Histogram("matchmaker_offers_scanned", obs.CountBuckets)
	m.hScanFanout = reg.Histogram("matchmaker_scan_workers", obs.CountBuckets)
}

// instrumented reports whether Instrument has been called; rejection
// diagnosis does extra matching work that uninstrumented cycles skip.
func (m *Matchmaker) instrumented() bool { return m.mMatches != nil }

// now reads the negotiation clock. Cycle timestamps (forensics
// reports, latency observations) must come from the injected Env when
// one is configured: the model checker replays cycles under a virtual
// clock, and a wall-clock read here would leak nondeterminism into
// replayed state. Without an Env the wall clock is the clock.
func (m *Matchmaker) now() time.Time {
	if m.cfg.Env != nil && m.cfg.Env.Now != nil {
		return time.Unix(m.cfg.Env.Now(), 0)
	}
	return time.Now() //determguard:ok the non-replay default; modelcheck always injects Env.Now
}

// Forensics exposes the negotiation-forensics store (nil until
// Instrument is called).
func (m *Matchmaker) Forensics() *Forensics { return m.forensics }

// Usage exposes the fair-share accounting table.
func (m *Matchmaker) Usage() *PriorityTable { return m.usage }

// SetUsage replaces the fair-share table — the hook a durable
// negotiator uses to charge usage against a ledger-backed table
// (ledger.go) instead of the default in-memory one. Call before the
// first cycle.
func (m *Matchmaker) SetUsage(t *PriorityTable) {
	if t != nil {
		m.usage = t
	}
}

// owner extracts the customer identity from a request ad; requests
// without an Owner share the anonymous customer "".
func owner(ad *classad.Ad) string {
	v := ad.Eval(classad.AttrOwner)
	if s, ok := v.StringVal(); ok {
		return s
	}
	return ""
}

// OwnerOf is the exported form of the accounting identity rule: the
// pool driver, which charges usage when a claim is accepted, must bill
// the same customer key Negotiate does.
func OwnerOf(ad *classad.Ad) string { return owner(ad) }

// Negotiate runs one cycle over two slices: it considers requests
// customer by customer — in slice order, reordered by fair-share
// priority when enabled — and for each request selects, among
// compatible offers, the one the request ranks highest, breaking ties
// by the offer's rank of the request and then by the earliest offer in
// slice order (paper §3.2). Each offer is introduced to at most one
// request per cycle and each match charges its customer one unit of
// usage; the matchmaker retains no state about the matches it hands
// out. Ads need neither Name nor Type.
//
// It is one everything-dirty pass of the negotiation engine
// (incremental.go) keyed by slice position — the same loop the pool
// driver keeps alive across cycles.
//
// With aggregation on, group matching applies on both sides (paper §5
// future work): offers are partitioned into equivalence classes and
// each request is evaluated against one representative per class; the
// per-request candidate list is additionally memoized by the request's
// own signature, so a batch of identical jobs — the high-throughput
// norm — costs one evaluation sweep instead of one per job. Outcomes
// are identical to the unaggregated scan (property-tested) provided
// constraints and ranks are pure; identity attributes they reference
// stay part of the class signature.
func (m *Matchmaker) Negotiate(requests, offers []*classad.Ad) []Match {
	deltas := make([]AdDelta, 0, len(offers)+len(requests))
	for i, ad := range offers {
		deltas = append(deltas, AdDelta{Kind: AdOffer, Key: sliceKey('o', i), Ad: ad})
	}
	for i, ad := range requests {
		deltas = append(deltas, AdDelta{Kind: AdRequest, Key: sliceKey('r', i), Ad: ad})
	}
	e := NewIncremental(m)
	e.Apply(deltas...)
	matches, _ := e.Recompute()
	// The service order was fixed before the loop ran, so charging
	// after it bills exactly what charging inside it would.
	for _, match := range matches {
		m.usage.Record(owner(match.Request), 1)
	}
	return matches
}

// sliceKey is the engine record key of element i of a Negotiate slice:
// big-endian, so byte-wise key order is slice order; the kind byte
// keeps request and offer keys apart.
func sliceKey(kind byte, i int) string {
	return string([]byte{kind, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)})
}

// diagnose categorizes why a request left the cycle unmatched,
// mirroring Analyze's verdicts: an empty pool (no-offers), a pool with
// no bilaterally compatible offer (constraint-failed), or compatible
// offers that higher-priority requests already took (outranked). The
// scan path re-examines only the offers the scan skipped as
// unavailable — available offers it did not evaluate were pruned by
// the index, which only prunes provably incompatible pairs; the
// aggregate path reads the candidate classes, which were computed
// ignoring availability.
func (m *Matchmaker) diagnose(req *classad.Ad, offers []*classad.Ad, available []bool, o outcome) string {
	if len(offers) == 0 {
		return ReasonNoOffers
	}
	if o.aggregated {
		if len(o.classes) > 0 {
			return ReasonOutranked
		}
		return ReasonConstraintFailed
	}
	for oi := range offers {
		if available[oi] {
			continue // the scan already proved these incompatible
		}
		if classad.MatchEnv(req, offers[oi], m.cfg.Env).Matched {
			return ReasonOutranked
		}
	}
	return ReasonConstraintFailed
}

func adName(ad *classad.Ad) string {
	if s, ok := ad.Eval(classad.AttrName).StringVal(); ok {
		return s
	}
	return owner(ad)
}

// requestOrder returns the indices of requests in service order. With
// fair share on, customers are ordered by effective usage (lightest
// first, the paper's "fair matching policy" from "past resource usage
// information"); requests within a customer keep submission order.
// Without fair share, submission order is preserved.
func (m *Matchmaker) requestOrder(requests []*classad.Ad) []int {
	order := make([]int, len(requests))
	for i := range order {
		order[i] = i
	}
	if !m.cfg.FairShare {
		return order
	}
	sort.SliceStable(order, func(a, b int) bool {
		ua := m.usage.Effective(owner(requests[order[a]]))
		ub := m.usage.Effective(owner(requests[order[b]]))
		return ua < ub
	})
	return order
}

// bestOfferIndexThreshold is the offer count above which BestOffer
// builds a throwaway index: posting-list construction evaluates
// nothing, so it amortizes after pruning a handful of candidates.
const bestOfferIndexThreshold = 256

// BestOffer is the single-request entry point: it returns the index of
// the offer the request should be introduced to, or -1, applying the
// same selection rule as Negotiate — better() is the single source of
// truth for both. Tools use it for "what would I match?" queries.
// Large offer lists are pruned through a throwaway offer index; the
// result is identical either way.
func BestOffer(req *classad.Ad, offers []*classad.Ad, env *classad.Env) (int, Match) {
	var cand []int
	if len(offers) >= bestOfferIndexThreshold {
		if c, indexed := NewOfferIndex(offers).Candidates(req, env); indexed {
			cand = c
		}
	}
	available := make([]bool, len(offers))
	for i := range available {
		available[i] = true
	}
	best, _ := evaluator{env: env, order: new([]ranked)}.scanOffers(req, offers, cand, available, candidate{index: -1})
	if best.index < 0 {
		return -1, Match{}
	}
	return best.index, Match{Request: req, Offer: offers[best.index],
		RequestRank: best.reqRank, OfferRank: best.offRank}
}
