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
// What a wake costs follows what changed, not how big the pool is.
// Persistent, maintained by Apply: the live offers as parallel lists
// in byte-wise key order — keys, ads (the view the scan reads: a
// position in it is an offer's tie-break index) and index slots — and
// the OfferIndex over them. A membership change is a binary search
// and an insert or a removal, a content change a binary search and a
// pointer store. Per-wake scratch, kept and refilled: the
// avail/frontier/takenBy vectors and the slot-to-position table, which
// only a wake that runs a full scan fills. A wake sorts no offer keys,
// builds no map over the offers and allocates nothing sized by them;
// the few positions it needs by key (touched, freed, each matched
// request's previous offer) it finds by binary search.
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
//     and the same relative tie-break order: a position is an offer's
//     rank in the key-ordered list, so arrivals and departures shift
//     positions but never swap two offers that stay). The new winner
//     is the better() of the previous pick and the best frontier
//     challenger — a scan over the frontier only.
//
// Unmatched and dirty requests take the full scan over every offer the
// index (or, under Config.Aggregate, the class decomposition) cannot
// rule out. The scan ranks those candidates by the request's Rank and
// tries their constraints best-ranked first, stopping once the first
// match's equal-rank run is done (scan.go); only a request that
// matches nothing tries them all. Both paths end in the same kernel
// (scanOffers); the shortcut merely hands it an incumbent and the
// frontier as its candidate list, and the walk stops at the first
// challenger ranked below the incumbent.

import (
	"fmt"
	"slices"
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
	// StaleOrderOnInsert skips the ordered insert for an offer under a
	// new key and files it at the tail of the list instead — the bug a
	// persistent order invites: the list is no longer sorted, so binary
	// searches miss live offers and tie-breaks follow arrival order.
	// The differential suite and the modelcheck delivery-order schedule
	// must both rediscover it.
	StaleOrderOnInsert bool
	// StopBeforeTies ends the scan's rank-ordered walk at its first
	// match instead of finishing that match's equal-rank run, so a
	// later twin that wins better()'s claimed or offer-rank tie-break is
	// never tried. The differential suite, the modelcheck
	// delivery-order schedule and the MC201 claimed-twin schedule must
	// all rediscover it.
	StopBeforeTies bool
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
	// Evals counts the pairs whose constraints the scans tried — the
	// negotiation work the incremental engine exists to avoid.
	Evals int
	// Ranks counts the request ranks the scans' rank passes evaluated
	// to order their candidates.
	Ranks int
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
	ix *OfferIndex
	// The live offers, as three parallel lists in byte-wise key order:
	// each offer's key, its ad (the view the scan reads; a position in
	// it is the offer's tie-break index), and its slot in ix once that
	// is built.
	offerKeys []string
	view      []*classad.Ad
	slots     []int
	requests  map[string]*reqRec
	// touched accumulates the keys of offers whose content changed (or
	// that appeared or disappeared) since the last wake, and freed those
	// of offers released by requests that left the pool: together the
	// initial frontier. They are lists, not sets (a key may repeat): a
	// wake's cost must follow how many deltas arrived, and clearing a
	// map costs what the map once held.
	touched, freed []string
	// prevOrder is the request-key order the previous wake served.
	prevOrder []string
	firstWake bool
	// scratch is Recompute's per-wake working set, kept between wakes.
	scratch wakeScratch

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
		requests:  make(map[string]*reqRec),
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
	var gone []string
	for _, key := range e.offerKeys {
		if !seen[key] {
			gone = append(gone, key)
		}
	}
	for _, key := range sortedKeys(e.requests) {
		if !seen[key] {
			gone = append(gone, key)
		}
	}
	for _, key := range gone {
		e.applyLocked(AdDelta{Kind: AdRemove, Key: key})
	}
}

// findOffer returns the position of key in the ordered offer list, or
// where it would be inserted.
func (e *Incremental) findOffer(key string) (pos int, found bool) {
	return slices.BinarySearch(e.offerKeys, key)
}

// applyLocked applies one delta to the persistent state: the offer
// index, the request set, the dirty marks, and the initial frontier.
// The caller holds e.mu.
func (e *Incremental) applyLocked(d AdDelta) {
	switch d.Kind {
	case AdRequest:
		if prev, ok := e.requests[d.Key]; ok {
			if prev.ad.Equal(d.Ad) {
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
		if pos, ok := e.findOffer(d.Key); ok {
			if e.view[pos].Equal(d.Ad) {
				return
			}
			if e.Hooks.DropDirtyNotification && !slices.Contains(e.touched, d.Key) {
				// The seeded mutant drops a change to an offer the last
				// wake already served: the index keeps the stale ad and
				// nothing re-enters negotiation for it.
				return
			}
			if e.ix != nil {
				e.ix.Remove(e.slots[pos])
				e.slots[pos] = e.ix.Add(d.Ad)
			}
			e.view[pos] = d.Ad
		} else {
			slot := 0
			if e.ix != nil {
				slot = e.ix.Add(d.Ad)
			}
			if e.Hooks.StaleOrderOnInsert {
				pos = len(e.offerKeys)
			}
			e.offerKeys = slices.Insert(e.offerKeys, pos, d.Key)
			e.view = slices.Insert(e.view, pos, d.Ad)
			e.slots = slices.Insert(e.slots, pos, slot)
		}
		// A request re-advertised as an offer frees whatever it held,
		// like any other request departure.
		e.dropRequestLocked(d.Key)
		e.touched = append(e.touched, d.Key)
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
			e.freed = append(e.freed, rec.offer)
		}
		delete(e.requests, key)
	}
	return ok
}

// dropOfferLocked retires the offer stored under key, if any.
func (e *Incremental) dropOfferLocked(key string) bool {
	pos, ok := e.findOffer(key)
	if ok {
		if e.ix != nil {
			e.ix.Remove(e.slots[pos])
		}
		e.offerKeys = slices.Delete(e.offerKeys, pos, pos+1)
		e.view = slices.Delete(e.view, pos, pos+1)
		e.slots = slices.Delete(e.slots, pos, pos+1)
		e.touched = append(e.touched, key)
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

// sortedKeys returns m's keys in byte-wise order — the base of the
// engine's request service order.
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
// produce.
func (e *Incremental) Recompute() ([]Match, WakeStats) {
	m := e.m
	start := m.now()
	e.mu.Lock()
	defer e.mu.Unlock()

	stats := WakeStats{Deltas: e.applied}
	ev := evaluator{
		env:            m.cfg.Env,
		order:          &e.scratch.order,
		legacyTie:      e.Hooks.LegacyClaimedTieBreak,
		stopBeforeTies: e.Hooks.StopBeforeTies,
	}
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

	// Positions in the view are the tie-break indices; arrivals and
	// departures shift them but never swap two offers that stay, which
	// is what keeps the previous pick's tie-break comparisons valid.
	view := e.view
	sc := &e.scratch
	sc.reset(len(view), m.forensics != nil)

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
	if m.cfg.Aggregate {
		agg = aggregate(view, reqAds)
	} else if e.ix == nil || (len(e.ix.offers) >= 64 && 2*len(view) <= len(e.ix.offers)) {
		e.ix = NewOfferIndex(view)
		for i := range e.slots {
			e.slots[i] = i
		}
	}

	// Initial frontier: touched offers plus offers freed by departed
	// requests, as view positions. It grows as replayed picks change.
	frontier := sc.frontier
	for _, keys := range [][]string{e.touched, e.freed} {
		for _, key := range keys {
			if pos, ok := e.findOffer(key); ok {
				frontier[pos] = true
			}
		}
		clear(keys) // let departed keys go
	}
	e.touched, e.freed = e.touched[:0], e.freed[:0]

	// Unmatched requests are always dirty (an empty<->non-empty pool
	// flips their reason, a new offer may serve them); matched ones
	// whose offer was touched or disappeared are too.
	for _, key := range ordered {
		rec := e.requests[key]
		if !rec.matched {
			rec.dirty = true
			continue
		}
		if pos, alive := e.findOffer(rec.offer); !alive || frontier[pos] {
			rec.dirty = true
		}
	}
	for _, key := range ordered {
		if e.requests[key].dirty {
			stats.Dirty++
		}
	}

	stats.Requests, stats.Offers = len(ordered), len(view)
	stats.Clean = len(ordered) - stats.Dirty
	e.gDirty.Set(int64(stats.Dirty))
	e.mWakes.Inc()

	// If any request is clean, snapshot the initial frontier and build
	// a mini-index over just those offers: a clean request's challenger
	// scan then evaluates only the frontier members that could possibly
	// satisfy its constraint (Candidates is a superset of the matching
	// offers, so skipping the rest drops no challenger). Offers the
	// replay adds to the frontier later are collected in grown and
	// scanned unpruned — there are few of them.
	frontierPos := sc.frontierPos[:0]
	var fix *OfferIndex
	if stats.Clean > 0 {
		for ci := range frontier {
			if frontier[ci] {
				frontierPos = append(frontierPos, ci)
			}
		}
		if len(frontierPos) > 0 {
			fads := make([]*classad.Ad, len(frontierPos))
			for k, pos := range frontierPos {
				fads[k] = view[pos]
			}
			fix = NewOfferIndex(fads)
		}
	}
	grown := sc.grown[:0]
	extendFrontier := func(pos int) {
		if !frontier[pos] {
			frontier[pos] = true
			grown = append(grown, pos)
		}
	}

	// avail starts all true; takenBy (forensics only) records which
	// request consumed each offer this wake, so "outranked" verdicts
	// can name the winner.
	avail, takenBy := sc.avail, sc.takenBy

	var out []Match
	for _, key := range ordered {
		rec := e.requests[key]
		o := outcome{best: candidate{index: -1}}
		if !rec.dirty {
			// Frontier shortcut: the previous pick still beats every
			// unchanged offer; only frontier members can challenge it.
			pos, _ := e.findOffer(rec.offer) // alive, or it were dirty
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
					var cost scanCost
					o.best, cost = ev.scanOffers(rec.ad, view, cand, avail, o.best)
					stats.Evals += cost.tried
					stats.Ranks += cost.ranked
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
			o = e.scan(ev, rec.ad, view, avail, agg)
			stats.Evals += o.scanned
			stats.Ranks += o.ranked
		}

		prevMatched, prevOffer := rec.matched, rec.offer
		if best := o.best; best.index >= 0 {
			avail[best.index] = false
			if takenBy != nil {
				takenBy[best.index] = adName(rec.ad)
			}
			rec.matched, rec.offer = true, e.offerKeys[best.index]
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
				if pos, ok := e.findOffer(prevOffer); ok {
					extendFrontier(pos)
				}
			}
			if rec.matched {
				extendFrontier(o.best.index)
			}
		}
		m.record(rec.ad, sp, view, avail, takenBy, o)
		rec.dirty = false
	}

	sc.frontierPos, sc.grown = frontierPos, grown
	e.mEvals.Add(int64(stats.Evals))
	m.hNegotiate.Observe(m.now().Sub(start).Seconds())
	return out, stats
}

// wakeScratch is the working set of one wake, kept so the next reuses
// its memory: each vector grows to the largest pool seen and is then
// only refilled.
type wakeScratch struct {
	posOfSlot []int    // index slot -> view position, filled on demand
	avail     []bool   // not yet taken this wake
	frontier  []bool   // may differ from the previous wake
	takenBy   []string // forensics: who took each offer
	// frontierPos and grown list the frontier's positions: as the wake
	// began, and added by the replay.
	frontierPos, grown []int
	// order is the scans' rank order (evaluator.order).
	order []ranked
}

// slotPositions maps index slots to view positions for the wake in
// progress, filling the table on the wake's first full scan: a wake
// that scans nothing never pays for it. Only live slots are ever looked
// up (Candidates returns no others), and each belongs to exactly one
// listed offer.
func (e *Incremental) slotPositions() []int {
	sc := &e.scratch
	if len(sc.posOfSlot) == 0 {
		posOfSlot := growTo(&sc.posOfSlot, len(e.ix.offers))
		for i, slot := range e.slots {
			posOfSlot[slot] = i
		}
	}
	return sc.posOfSlot
}

// reset sizes the per-offer vectors for n offers and refills them:
// every offer available, none on the frontier, none taken.
func (sc *wakeScratch) reset(n int, forensics bool) {
	sc.posOfSlot = sc.posOfSlot[:0] // empty: not yet filled this wake
	// Fill avail by doubling copies: memmove speed, where a byte loop
	// is the one per-offer cost a quiet wake has left.
	if avail := growTo(&sc.avail, n); n > 0 {
		avail[0] = true
		for done := 1; done < n; done *= 2 {
			copy(avail[done:], avail[:done])
		}
	}
	clear(growTo(&sc.frontier, n))
	if forensics {
		clear(growTo(&sc.takenBy, n))
	}
}

// growTo sets *s to length n and returns it, reallocating only when
// its capacity is short, and then with append's headroom: a pool that
// grows by one offer per wake reallocates a logarithmic number of
// times. Contents are whatever the last use left.
func growTo[T any](s *[]T, n int) []T {
	*s = slices.Grow((*s)[:0], n)[:n]
	return *s
}

// outcome is what serving one request produced: the picked offer (a
// view position, -1 for none) with its ranks, and what the scan knew,
// for the forensic ledger.
type outcome struct {
	best    candidate
	scanned int
	ranked  int
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
func (e *Incremental) scan(ev evaluator, req *classad.Ad, view []*classad.Ad, avail []bool, agg *aggregation) outcome {
	m := e.m
	var o outcome
	if agg != nil {
		o.aggregated = true
		o.classes, o.scanned = agg.candidates(ev, req, view)
		o.best = agg.pick(o.classes, avail)
		m.hScanned.Observe(float64(o.scanned))
		return o
	}
	if o.cand, o.indexed = e.ix.Candidates(req, m.cfg.Env); o.indexed {
		// Candidates are live slots; the scan wants view positions (in
		// any order: it orders them itself).
		posOfSlot := e.slotPositions()
		for i, s := range o.cand {
			o.cand[i] = posOfSlot[s]
		}
		m.mIdxCand.Add(int64(len(o.cand)))
		m.mIdxPruned.Add(int64(len(view) - len(o.cand)))
	} else {
		m.mIdxMisses.Inc()
	}
	var cost scanCost
	o.best, cost = ev.scanOffers(req, view, o.cand, avail, candidate{index: -1})
	o.scanned, o.ranked = cost.tried, cost.ranked
	m.hScanFanout.Observe(float64(cost.workers))
	m.hScanned.Observe(float64(o.scanned))
	return o
}

// record books one served request's outcome — the one place counters,
// log entries, forensic reports and the negotiate span's verdict are
// written, all under the request's trace. Rejection diagnosis does
// extra matching work, so an uninstrumented matchmaker skips it.
func (m *Matchmaker) record(req *classad.Ad, sp *obs.SpanRec, offers []*classad.Ad, avail []bool, takenBy []string, o outcome) {
	defer sp.End()
	if best := o.best; best.index >= 0 {
		m.mMatches.Inc()
		if !m.instrumented() {
			return
		}
		offer, trace := adName(offers[best.index]), classad.TraceOf(req)
		m.events.Emit(trace, "matchmaker", "match", map[string]string{
			"request":      adName(req),
			"offer":        offer,
			"request_rank": fmt.Sprintf("%g", best.reqRank),
			"offer_rank":   fmt.Sprintf("%g", best.offRank),
		})
		r := Report{
			Request: adName(req), Owner: owner(req), Trace: trace,
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
	trace := classad.TraceOf(req)
	m.events.Emit(trace, "matchmaker", "no_match", map[string]string{
		"request": adName(req),
		"reason":  reason,
	})
	ledger, truncated := m.buildLedger(req, offers, avail, takenBy, o.cand, o.indexed)
	m.forensics.record(Report{
		Request: adName(req), Owner: owner(req), Trace: trace,
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
		pos, ok := e.findOffer(rec.offer)
		if !ok {
			continue
		}
		out = append(out, Match{
			Request: rec.ad, Offer: e.view[pos],
			RequestRank: rec.reqRank, OfferRank: rec.offRank,
			Trace: classad.TraceOf(rec.ad),
		})
	}
	return out
}
