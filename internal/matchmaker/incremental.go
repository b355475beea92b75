package matchmaker

// The negotiation engine: the one loop that orders requests and picks
// offers (paper §3.2), kept as a view over the ad pool that its caller
// maintains delta by delta.
//
// The caller — the pool driver fed from the collector's change feed or
// a query snapshot, or the one-shot Negotiate over two slices —
// supplies every ad under a record key and says whether it is a
// request or an offer. The engine keeps the offers (with a persistent
// OfferIndex), the requests, the previous wake's full assignment, and
// a dirty request set: a request is dirty if it is new or changed, was
// unmatched, or its prior match's offer was touched by a delta. A
// "full cycle" is the same loop with every request dirty
// (MarkAllDirty, the first wake, or aggregation, which rebuilds its
// classes per wake).
//
// Correctness contract (pinned by TestIncrementalDifferential against
// the naive oracle in oracle_test.go): after any delta stream,
// Recompute's assignment and forensic verdicts are those of a
// from-scratch negotiation over the same live ads. The argument for
// the one shortcut the engine takes — a clean matched request
// re-examines only the "frontier" instead of the whole pool — is:
//
//   - Requests are replayed in the same canonical order every wake
//     (key-sorted, then fair-share). If the order diverges from the
//     previous wake at position k (usage changed, a request arrived
//     or left), every request from k on is marked dirty, so the
//     shortcut only applies where the serving prefix is literally
//     identical.
//   - The frontier is the set of offers whose content or availability
//     differs from the previous wake at the corresponding point of
//     the replay: offers touched by deltas, offers freed by departed
//     requests, plus — grown during the replay — both sides of every
//     pick that changed. By induction, an offer outside the frontier
//     is bit-identical and identically available at a clean request's
//     turn.
//   - A clean request's previous pick therefore still beats every
//     non-frontier offer (same ads, same ranks, same claimed state,
//     and the same relative tie-break order, because positions are
//     assigned in key-sorted order and the relative order of two
//     fixed keys never changes). The new winner is the better() of
//     the previous pick and the best frontier challenger — a scan
//     over the frontier only.
//
// Unmatched and dirty requests take the full scan, which evaluates
// every offer the index (or, under Config.Aggregate, the class
// decomposition) cannot rule out. Both paths end in the same kernel
// (scanRange); the shortcut merely hands it an incumbent and the
// frontier as its candidate list.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/classad"
	"repro/internal/obs"
)

// AdDeltaKind classifies one pool change as the engine sees it.
type AdDeltaKind int

const (
	// AdRequest: a request ad appeared or changed under Key.
	AdRequest AdDeltaKind = iota
	// AdOffer: an offer ad appeared or changed under Key.
	AdOffer
	// AdRemove: whatever is stored under Key left the pool.
	AdRemove
)

// AdDelta is one pool change delivered to the engine. Key is the
// record key the caller chose (the pool uses the folded ad name):
// the engine stores Ad under it and serves requests, and breaks rank
// ties between offers, in byte-wise Key order. Ad is nil for AdRemove.
type AdDelta struct {
	Kind AdDeltaKind
	Key  string
	Ad   *classad.Ad
}

// IncrementalHooks are seeded fault-injection points for the engine's
// self-tests (PR 8 style); all off in production.
type IncrementalHooks struct {
	// DropDirtyNotification silently discards content-change deltas
	// for offers the engine already knows — the "resource changed but
	// nobody re-matched it" bug the change feed exists to prevent. The
	// differential suite and the modelcheck delivery-order schedule
	// must both rediscover it.
	DropDirtyNotification bool
	// LegacyClaimedTieBreak reinstates the pre-fix selection order that
	// ignored an offer's claimed state on rank ties (earliest index
	// won), so modelcheck's MC201 regression can mechanically
	// rediscover the claimed-offer livelock (ROADMAP item 1).
	LegacyClaimedTieBreak bool
}

// offerRec is the engine's record of one live offer.
type offerRec struct {
	ad   *classad.Ad
	slot int // slot in the persistent OfferIndex, once built
}

// reqRec is the engine's record of one live request and its previous
// outcome.
type reqRec struct {
	ad    *classad.Ad
	dirty bool
	// Previous wake's outcome.
	matched          bool
	offer            string // key of the matched offer
	reqRank, offRank float64
}

// WakeStats summarizes one Recompute for callers and tests.
type WakeStats struct {
	// Requests and Offers are the pool sizes this wake served.
	Requests, Offers int
	// Deltas is how many pool changes this wake absorbed.
	Deltas int
	// Dirty is how many requests took the full scan path.
	Dirty int
	// Clean is how many matched requests took the frontier shortcut.
	Clean int
	// Evals counts bilateral MatchEnv evaluations performed — the
	// negotiation work the incremental engine exists to avoid.
	Evals int
	// FullRebuild reports that this wake ran with every request dirty
	// (first wake, MarkAllDirty fallback, or aggregation).
	FullRebuild bool
}

// Incremental is the negotiation engine. Construct with
// NewIncremental, feed it with Apply (deltas) or Sync (a snapshot),
// and run wakes with Recompute when NeedsWake (or Ready) says there is
// work. All methods are safe for concurrent use.
type Incremental struct {
	m *Matchmaker

	// Hooks seed faults for self-tests; zero in production.
	Hooks IncrementalHooks

	mu sync.Mutex
	// needs_matchmaking: changed is set by a delta that altered the
	// pool, forceFull by MarkAllDirty; ready carries the edge to a
	// driver blocked in select. Recompute clears both flags.
	changed   bool
	forceFull bool
	ready     chan struct{}
	applied   int // pool changes absorbed since the last wake

	// Persistent negotiation state. ix stays nil until the first wake
	// builds it over the whole pool in one batch (and for good under
	// Config.Aggregate, which prunes by class instead).
	ix       *OfferIndex
	offers   map[string]*offerRec
	requests map[string]*reqRec
	// touched accumulates offer keys whose content changed (or that
	// appeared/disappeared) since the last wake — the initial
	// frontier.
	touched map[string]bool
	// freed accumulates offers released by requests that left the
	// pool since the last wake.
	freed map[string]bool
	// prevOrder is the request-key order the previous wake served.
	prevOrder []string
	firstWake bool

	// Observability; nil-safe until InstrumentEngine.
	gDirty        *obs.Gauge
	mWakes        *obs.Counter
	mCoalesced    *obs.Counter
	mFullRebuilds *obs.Counter
	mEvals        *obs.Counter
}

// NewIncremental returns an empty engine negotiating with m's
// configuration, usage table and instrumentation. The engine never
// charges usage: its caller bills m.Usage() when a match is consumed.
func NewIncremental(m *Matchmaker) *Incremental {
	return &Incremental{
		m:         m,
		ready:     make(chan struct{}, 1),
		offers:    make(map[string]*offerRec),
		requests:  make(map[string]*reqRec),
		touched:   make(map[string]bool),
		freed:     make(map[string]bool),
		firstWake: true,
	}
}

// InstrumentEngine registers the engine's own metrics with o:
// matchmaker_dirty_requests (gauge: dirty-set depth of the last wake),
// matchmaker_wakes_total, matchmaker_wake_coalesced_total (pool
// changes absorbed into an already-pending wake),
// matchmaker_full_rebuilds_total (fallback cycles), and
// matchmaker_incremental_evals_total (bilateral evaluations spent).
// The embedded Matchmaker is instrumented separately (Instrument).
func (e *Incremental) InstrumentEngine(o *obs.Obs) {
	reg := o.Registry()
	e.mu.Lock()
	e.gDirty = reg.Gauge("matchmaker_dirty_requests")
	e.mWakes = reg.Counter("matchmaker_wakes_total")
	e.mCoalesced = reg.Counter("matchmaker_wake_coalesced_total")
	e.mFullRebuilds = reg.Counter("matchmaker_full_rebuilds_total")
	e.mEvals = reg.Counter("matchmaker_incremental_evals_total")
	e.mu.Unlock()
}

// Matchmaker exposes the embedded matchmaker (usage, forensics).
func (e *Incremental) Matchmaker() *Matchmaker { return e.m }

// Apply brings the engine's pool up to date with deltas, in order,
// and raises needs_matchmaking if any of them changed it. A
// content-identical upsert and a removal for a key the engine never
// stored change nothing and wake nobody.
func (e *Incremental) Apply(deltas ...AdDelta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, d := range deltas {
		e.applyLocked(d)
	}
}

// Sync replaces the engine's pool with snapshot: every ad in it is
// upserted (content-identical ones are left alone) and every record
// whose key it does not mention is removed. It is how a caller without
// a change feed — or one whose feed overflowed — feeds the engine.
func (e *Incremental) Sync(snapshot []AdDelta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := make(map[string]bool, len(snapshot))
	for _, d := range snapshot {
		seen[d.Key] = true
		e.applyLocked(d)
	}
	for key := range e.offers {
		if !seen[key] {
			e.applyLocked(AdDelta{Kind: AdRemove, Key: key})
		}
	}
	for key := range e.requests {
		if !seen[key] {
			e.applyLocked(AdDelta{Kind: AdRemove, Key: key})
		}
	}
}

// applyLocked applies one delta to the persistent state: the offer
// index, the request set, the dirty marks, and the initial frontier.
// The caller holds e.mu.
func (e *Incremental) applyLocked(d AdDelta) {
	switch d.Kind {
	case AdRequest:
		if prev, ok := e.requests[d.Key]; ok {
			if sameAd(prev.ad, d.Ad) {
				return
			}
			prev.ad, prev.dirty = d.Ad, true
		} else {
			e.requests[d.Key] = &reqRec{ad: d.Ad, dirty: true}
		}
		// One key is one ad: a key re-advertised as a request retires
		// whatever offer it named before.
		e.dropOfferLocked(d.Key)
	case AdOffer:
		if prev, ok := e.offers[d.Key]; ok {
			if sameAd(prev.ad, d.Ad) {
				return
			}
			if e.Hooks.DropDirtyNotification && !e.touched[d.Key] {
				// The seeded mutant drops a change to an offer the last
				// wake already served: the index keeps the stale ad and
				// nothing re-enters negotiation for it.
				return
			}
			if e.ix != nil {
				e.ix.Remove(prev.slot)
				prev.slot = e.ix.Add(d.Ad)
			}
			prev.ad = d.Ad
		} else {
			rec := &offerRec{ad: d.Ad}
			if e.ix != nil {
				rec.slot = e.ix.Add(d.Ad)
			}
			e.offers[d.Key] = rec
		}
		// A request re-advertised as an offer frees whatever it held,
		// like any other request departure.
		e.dropRequestLocked(d.Key)
		e.touched[d.Key] = true
	case AdRemove:
		wasRequest := e.dropRequestLocked(d.Key)
		wasOffer := e.dropOfferLocked(d.Key)
		if !wasRequest && !wasOffer {
			return
		}
	}
	if e.changed || e.forceFull {
		e.mCoalesced.Inc()
	}
	e.applied++
	e.changed = true
	e.signalLocked()
}

// sameAd reports a content-identical refresh. Ads are immutable once
// published, so the common resync case is decided by the pointer.
func sameAd(prev, next *classad.Ad) bool {
	return prev == next || prev.Equal(next)
}

func (e *Incremental) signalLocked() {
	select {
	case e.ready <- struct{}{}:
	default:
	}
}

// dropRequestLocked retires the request stored under key, if any,
// freeing the offer it held.
func (e *Incremental) dropRequestLocked(key string) bool {
	rec, ok := e.requests[key]
	if ok {
		if rec.matched {
			e.freed[rec.offer] = true
		}
		delete(e.requests, key)
	}
	return ok
}

// dropOfferLocked retires the offer stored under key, if any.
func (e *Incremental) dropOfferLocked(key string) bool {
	rec, ok := e.offers[key]
	if ok {
		if e.ix != nil {
			e.ix.Remove(rec.slot)
		}
		delete(e.offers, key)
		e.touched[key] = true
	}
	return ok
}

// MarkAllDirty requests a full rebuild on the next wake — the
// fallback cycle's entry point — and raises needs_matchmaking.
func (e *Incremental) MarkAllDirty() {
	e.mu.Lock()
	e.forceFull = true
	e.signalLocked()
	e.mu.Unlock()
}

// NeedsWake reports whether the pool changed (or a rebuild was forced)
// since the last Recompute.
func (e *Incremental) NeedsWake() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.changed || e.forceFull
}

// Ready delivers one token each time needs_matchmaking is raised, for
// a driver that sleeps in select; a token may be stale, so the
// receiver re-checks NeedsWake.
func (e *Incremental) Ready() <-chan struct{} { return e.ready }

// sortedKeys returns m's keys in the byte-wise order that fixes the
// engine's service and tie-break positions.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Recompute runs one wake: it replays the negotiation in canonical
// order with the frontier shortcut and returns the complete current
// assignment (every live match, not just the changed ones — MATCH
// notification is idempotent and the caller retries unacknowledged
// matches by notifying again). The returned assignment is what a
// from-scratch negotiation over the engine's current ads would
// produce. cycle stamps the events and forensic reports the wake
// emits.
func (e *Incremental) Recompute(cycle string) ([]Match, WakeStats) {
	m := e.m
	start := m.now()
	e.mu.Lock()
	defer e.mu.Unlock()

	stats := WakeStats{Deltas: e.applied}
	ev := evaluator{env: m.cfg.Env, legacyTie: e.Hooks.LegacyClaimedTieBreak}
	// Aggregation rebuilds its classes per wake, so it cannot take the
	// frontier shortcut.
	full := e.forceFull || e.firstWake || m.cfg.Aggregate
	e.changed, e.forceFull, e.firstWake, e.applied = false, false, false, 0
	if full {
		stats.FullRebuild = true
		e.mFullRebuilds.Inc()
		for _, rec := range e.requests {
			rec.dirty = true
		}
	}

	// Key-sorted view of the live offers: positions in this view are
	// the tie-break indices. Relative order of two fixed keys never
	// changes across wakes, which is what keeps the previous pick's
	// tie-break comparisons valid.
	offerKeys := sortedKeys(e.offers)
	view := make([]*classad.Ad, len(offerKeys))
	posOf := make(map[string]int, len(offerKeys))
	for i, key := range offerKeys {
		view[i] = e.offers[key].ad
		posOf[key] = i
	}

	// Canonical request order: key-sorted base, fair-share on top. Any
	// divergence from the previous wake's order dirties every request
	// from the divergence point on.
	reqKeys := sortedKeys(e.requests)
	reqAds := make([]*classad.Ad, len(reqKeys))
	for i, key := range reqKeys {
		reqAds[i] = e.requests[key].ad
	}
	order := m.requestOrder(reqAds)
	ordered := make([]string, len(order))
	for i, ri := range order {
		ordered[i] = reqKeys[ri]
	}
	for i, key := range ordered {
		if i >= len(e.prevOrder) || e.prevOrder[i] != key {
			for _, later := range ordered[i:] {
				e.requests[later].dirty = true
			}
			break
		}
	}
	e.prevOrder = ordered

	// The scan's pruning structure: equivalence classes rebuilt per
	// wake, or the persistent index — built over the whole view in one
	// batch on the first wake and again once dead slots outnumber live
	// ones, maintained by Add/Remove in between.
	var agg *aggregation
	var posOfSlot []int
	if m.cfg.Aggregate {
		agg = aggregate(view, reqAds)
	} else {
		if e.ix == nil || (len(e.ix.offers) >= 64 && 2*len(view) <= len(e.ix.offers)) {
			e.ix = NewOfferIndex(view)
			for i, key := range offerKeys {
				e.offers[key].slot = i
			}
		}
		posOfSlot = make([]int, len(e.ix.offers))
		for i := range posOfSlot {
			posOfSlot[i] = -1
		}
		for i, key := range offerKeys {
			posOfSlot[e.offers[key].slot] = i
		}
	}

	// Initial frontier: touched offers plus offers freed by departed
	// requests, as view positions. It grows as replayed picks change.
	frontier := make([]bool, len(view))
	for key := range e.touched {
		if pos, ok := posOf[key]; ok {
			frontier[pos] = true
		}
	}
	for key := range e.freed {
		if pos, ok := posOf[key]; ok {
			frontier[pos] = true
		}
	}
	e.touched = make(map[string]bool)
	e.freed = make(map[string]bool)

	// Unmatched requests are always dirty (an empty<->non-empty pool
	// flips their reason, a new offer may serve them); matched ones
	// whose offer was touched or disappeared are too.
	for _, key := range ordered {
		rec := e.requests[key]
		if !rec.matched {
			rec.dirty = true
			continue
		}
		if pos, alive := posOf[rec.offer]; !alive || frontier[pos] {
			rec.dirty = true
		}
	}
	for _, key := range ordered {
		if e.requests[key].dirty {
			stats.Dirty++
		}
	}

	// Snapshot the initial frontier and build a mini-index over just
	// those offers: a clean request's challenger scan then evaluates
	// only the frontier members that could possibly satisfy its
	// constraint (Candidates is a superset of the matching offers, so
	// skipping the rest drops no challenger). Offers the replay adds to
	// the frontier later are collected in grown and scanned unpruned —
	// there are few of them.
	var frontierPos []int
	for ci := range frontier {
		if frontier[ci] {
			frontierPos = append(frontierPos, ci)
		}
	}
	var fix *OfferIndex
	if !full && len(frontierPos) > 0 {
		fads := make([]*classad.Ad, len(frontierPos))
		for k, pos := range frontierPos {
			fads[k] = view[pos]
		}
		fix = NewOfferIndex(fads)
	}
	var grown []int
	extendFrontier := func(pos int) {
		if !frontier[pos] {
			frontier[pos] = true
			grown = append(grown, pos)
		}
	}

	stats.Requests, stats.Offers = len(ordered), len(view)
	stats.Clean = len(ordered) - stats.Dirty
	e.gDirty.Set(int64(stats.Dirty))
	e.mWakes.Inc()

	avail := make([]bool, len(view))
	for i := range avail {
		avail[i] = true
	}
	// takenBy records which request consumed each offer this wake, so
	// forensic "outranked" verdicts can name the winner.
	var takenBy []string
	if m.forensics != nil {
		takenBy = make([]string, len(view))
	}

	var out []Match
	for _, key := range ordered {
		rec := e.requests[key]
		o := outcome{best: candidate{index: -1}}
		if !rec.dirty {
			// Frontier shortcut: the previous pick still beats every
			// unchanged offer; only frontier members can challenge it.
			pos := posOf[rec.offer]
			if !avail[pos] {
				// An earlier changed pick took it; fall back to the
				// full scan for this request.
				rec.dirty = true
				stats.Dirty++
				stats.Clean--
			} else {
				challengers := frontierPos
				if fix != nil {
					if slots, pruned := fix.Candidates(rec.ad, m.cfg.Env); pruned {
						challengers = make([]int, len(slots))
						for k, s := range slots {
							challengers[k] = frontierPos[s]
						}
					}
				}
				o.best = candidate{pos, rec.reqRank, rec.offRank, ev.claimed(view[pos])}
				for _, cand := range [][]int{challengers, grown} {
					if len(cand) == 0 {
						continue // to the scan, a nil list is every offer
					}
					var n int
					o.best, n, _ = ev.scanOffers(rec.ad, view, cand, avail, o.best)
					stats.Evals += n
				}
			}
		}
		var sp *obs.SpanRec
		if rec.dirty {
			// Dirty requests are genuinely re-negotiated, so they get a
			// negotiate span; a clean request keeps its prior decision
			// and emits none.
			sp = m.spans.Start(classad.TraceOf(rec.ad), classad.TraceSpanOf(rec.ad), "matchmaker", "negotiate")
			sp.Set("request", adName(rec.ad))
			o = e.scan(ev, rec.ad, view, posOfSlot, avail, agg)
			stats.Evals += o.scanned
		}

		prevMatched, prevOffer := rec.matched, rec.offer
		if best := o.best; best.index >= 0 {
			avail[best.index] = false
			if takenBy != nil {
				takenBy[best.index] = adName(rec.ad)
			}
			rec.matched, rec.offer = true, offerKeys[best.index]
			rec.reqRank, rec.offRank = best.reqRank, best.offRank
			out = append(out, Match{
				Request: rec.ad, Offer: view[best.index],
				RequestRank: best.reqRank, OfferRank: best.offRank,
				Trace: classad.TraceOf(rec.ad),
				Span:  sp.ID(),
			})
		} else {
			rec.matched, rec.offer = false, ""
		}
		// Every pick difference extends the frontier: the old offer is
		// free where it was taken, the new one taken where it was free.
		if rec.offer != prevOffer || rec.matched != prevMatched {
			if prevMatched {
				if pos, ok := posOf[prevOffer]; ok {
					extendFrontier(pos)
				}
			}
			if rec.matched {
				extendFrontier(o.best.index)
			}
		}
		m.record(cycle, rec.ad, sp, view, avail, takenBy, o)
		rec.dirty = false
	}

	e.mEvals.Add(int64(stats.Evals))
	m.hNegotiate.Observe(m.now().Sub(start).Seconds())
	return out, stats
}

// outcome is what serving one request produced: the picked offer (a
// view position, -1 for none) with its ranks, and what the scan knew,
// for the forensic ledger.
type outcome struct {
	best    candidate
	scanned int
	// cand/indexed are the offer index's candidate set (indexed=false:
	// every offer was scanned); classes/aggregated the compatible
	// equivalence classes under aggregation.
	cand       []int
	indexed    bool
	classes    []classCand
	aggregated bool
}

// scan is the full path for one request — the engine's single scan
// point: the best bid of its candidate classes under aggregation,
// otherwise the persistent index's candidates mapped into view
// positions and handed to the scanOffers kernel.
func (e *Incremental) scan(ev evaluator, req *classad.Ad, view []*classad.Ad, posOfSlot []int, avail []bool, agg *aggregation) outcome {
	m := e.m
	var o outcome
	if agg != nil {
		o.aggregated = true
		o.classes, o.scanned = agg.candidates(ev, req, view)
		o.best = agg.pick(o.classes, avail)
		m.hScanned.Observe(float64(o.scanned))
		return o
	}
	var slots []int
	if slots, o.indexed = e.ix.Candidates(req, m.cfg.Env); o.indexed {
		o.cand = make([]int, 0, len(slots))
		for _, s := range slots {
			if pos := posOfSlot[s]; pos >= 0 {
				o.cand = append(o.cand, pos)
			}
		}
		sort.Ints(o.cand)
		m.mIdxCand.Add(int64(len(o.cand)))
		m.mIdxPruned.Add(int64(len(view) - len(o.cand)))
	} else {
		m.mIdxMisses.Inc()
	}
	var workers int
	o.best, o.scanned, workers = ev.scanOffers(req, view, o.cand, avail, candidate{index: -1})
	m.hScanFanout.Observe(float64(workers))
	m.hScanned.Observe(float64(o.scanned))
	return o
}

// record books one served request's outcome — the one place counters,
// events, forensic reports and the negotiate span's verdict are
// written. Rejection diagnosis does extra matching work, so an
// uninstrumented matchmaker skips it.
func (m *Matchmaker) record(cycle string, req *classad.Ad, sp *obs.SpanRec, offers []*classad.Ad, avail []bool, takenBy []string, o outcome) {
	defer sp.End()
	if best := o.best; best.index >= 0 {
		m.mMatches.Inc()
		if !m.instrumented() {
			return
		}
		offer := adName(offers[best.index])
		m.events.Emit("matchmaker", "match", cycle, map[string]string{
			"request":      adName(req),
			"offer":        offer,
			"request_rank": fmt.Sprintf("%g", best.reqRank),
			"offer_rank":   fmt.Sprintf("%g", best.offRank),
		})
		r := Report{
			Request: adName(req), Owner: owner(req), Cycle: cycle,
			Time: m.now(), Matched: true, Offer: offer,
		}
		if offerClaimed(offers[best.index]) {
			r.Claimed = true
			r.Ledger = []OfferVerdict{{
				Offer:   offer,
				Outcome: VerdictMatchedClaimed,
				Detail: fmt.Sprintf("offer advertises State == \"Claimed\"; "+
					"claim-time revalidation rejects unless offered rank %g beats the running claim", best.offRank),
			}}
		}
		m.forensics.record(r)
		sp.Set("outcome", "match")
		sp.Set("offer", offer)
		return
	}
	if !m.instrumented() {
		return
	}
	reason := m.diagnose(req, offers, avail, o)
	switch reason {
	case ReasonNoOffers:
		m.mRejNone.Inc()
	case ReasonConstraintFailed:
		m.mRejConstr.Inc()
	case ReasonOutranked:
		m.mRejTaken.Inc()
	}
	m.events.Emit("matchmaker", "no_match", cycle, map[string]string{
		"request": adName(req),
		"reason":  reason,
	})
	ledger, truncated := m.buildLedger(req, offers, avail, takenBy, o.cand, o.indexed)
	m.forensics.record(Report{
		Request: adName(req), Owner: owner(req), Cycle: cycle,
		Time: m.now(), Reason: reason,
		Ledger: ledger, Truncated: truncated,
	})
	sp.Set("outcome", reason)
}

// Matches returns the current assignment without recomputing, in the
// previous wake's order (tests and status tools).
func (e *Incremental) Matches() []Match {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Match
	for _, key := range e.prevOrder {
		rec, ok := e.requests[key]
		if !ok || !rec.matched {
			continue
		}
		off, ok := e.offers[rec.offer]
		if !ok {
			continue
		}
		out = append(out, Match{
			Request: rec.ad, Offer: off.ad,
			RequestRank: rec.reqRank, OfferRank: rec.offRank,
			Trace: classad.TraceOf(rec.ad),
		})
	}
	return out
}
