package collector

// Delta advertising and the store's change feed. Two independent
// mechanisms share the machinery here:
//
//   - On the wire, an advertiser refreshes a stored ad with an
//     UPDATE_DELTA envelope carrying only changed attributes against a
//     base sequence number. The collector merges the delta into its
//     stored copy; on any sequence mismatch it rejects the delta and
//     the advertiser falls back to a full ADVERTISE, so a lost or
//     reordered delta degrades to the paper's ordinary full-ad refresh
//     rather than corrupting state.
//
//   - In process, the store publishes a change feed — one Delta per ad
//     added, changed, expired, or invalidated — over a subscription
//     seam. The event-driven negotiation engine (internal/matchmaker,
//     incremental.go) sleeps on this feed instead of a fixed cycle
//     timer. A content-identical refresh (the steady-state heartbeat)
//     publishes nothing, which is what makes the dirty set empty and
//     negotiation idle while the pool is quiet.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/classad"
)

// ErrSeqMismatch rejects an UPDATE_DELTA whose BaseSeq does not equal
// the stored ad's sequence (or whose ad is not stored at all). The
// advertiser recovers by sending a full ADVERTISE.
var ErrSeqMismatch = errors.New("collector: delta base sequence mismatch")

// DeltaKind classifies one store change.
type DeltaKind int

const (
	// DeltaAdded: an ad appeared under a name not previously stored.
	DeltaAdded DeltaKind = iota
	// DeltaChanged: a stored ad's content changed (full re-advertise
	// with different attributes, or a merged wire delta).
	DeltaChanged
	// DeltaExpired: an ad's lifetime ran out without a refresh.
	DeltaExpired
	// DeltaInvalidated: the advertiser explicitly withdrew the ad.
	DeltaInvalidated
	// DeltaResync is not a store change but a subscription's overflow
	// marker: deltas before it were dropped (SubscriptionCap), so the
	// subscriber must re-read the store. Name and Ad are empty.
	DeltaResync
)

func (k DeltaKind) String() string {
	switch k {
	case DeltaAdded:
		return "added"
	case DeltaChanged:
		return "changed"
	case DeltaExpired:
		return "expired"
	case DeltaInvalidated:
		return "invalidated"
	case DeltaResync:
		return "resync"
	}
	return fmt.Sprintf("DeltaKind(%d)", int(k))
}

// Delta is one published store change. Ad carries the post-change ad
// for Added/Changed and the last stored ad for Expired/Invalidated.
type Delta struct {
	Kind DeltaKind
	Name string // folded ad name
	Ad   *classad.Ad
}

// Hooks are seeded fault-injection points for the delta machinery's
// self-tests (the PR 8 modelcheck style): each hook reintroduces a
// specific bug the test suite must mechanically rediscover. All hooks
// are off in production.
type Hooks struct {
	// StaleDeltaApply makes ApplyDelta merge a delta whose BaseSeq
	// does not match the stored sequence — the classic
	// lost-update-then-patch corruption the sequence check exists to
	// prevent.
	StaleDeltaApply bool
}

// SubscriptionCap bounds a subscription's queue. A subscriber that
// falls this far behind has its queue collapsed to one DeltaResync
// marker: the deltas themselves are lost, the fact that they happened
// is not, and the subscriber recovers by re-reading the store (All)
// and renegotiating everything. The cap sits above the pool sizes the
// benchmarks seed in one burst, so only a stalled subscriber pays it.
const SubscriptionCap = 16384

// Subscription is one subscriber's view of the store's change feed: a
// FIFO the store appends to and the subscriber drains, bounded by
// SubscriptionCap. Dropping a delta silently would undo the engine's
// dirty marking (exactly the DropDirtyNotification mutant), so
// overflow is never silent: it is the DeltaResync marker, counted in
// collector_subscription_overflows_total.
type Subscription struct {
	store *Store

	mu     sync.Mutex
	queue  []Delta
	closed bool
	// ready holds one token while deltas may be queued; Close closes
	// it.
	ready chan struct{}
}

// Subscribe registers a new change-feed subscriber. Deltas published
// after the call are queued until Drain collects them; Close
// unregisters.
func (s *Store) Subscribe() *Subscription {
	sub := &Subscription{store: s, ready: make(chan struct{}, 1)}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return sub
}

// publishLocked fans one delta out to every subscriber. The caller
// holds s.mu; subscriber locks nest strictly inside it.
func (s *Store) publishLocked(d Delta) {
	s.version++
	for _, sub := range s.subs {
		sub.mu.Lock()
		if !sub.closed {
			if len(sub.queue) >= SubscriptionCap {
				sub.queue = []Delta{{Kind: DeltaResync}} // and let the dropped ads go
				s.mSubOverflows.Inc()
			} else {
				sub.queue = append(sub.queue, d)
			}
			select {
			case sub.ready <- struct{}{}:
			default:
			}
		}
		sub.mu.Unlock()
	}
}

// Drain returns and clears the queued deltas without blocking.
func (sub *Subscription) Drain() []Delta {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	out := sub.queue
	sub.queue = nil
	return out
}

// Ready delivers a token after deltas were queued, for a subscriber
// that sleeps in select and then Drains (a token may be stale: Drain
// can come back empty). It is closed by Close.
func (sub *Subscription) Ready() <-chan struct{} { return sub.ready }

// Pending reports the queued delta count.
func (sub *Subscription) Pending() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return len(sub.queue)
}

// Close unregisters the subscription and closes Ready.
func (sub *Subscription) Close() {
	s := sub.store
	s.mu.Lock()
	for i, x := range s.subs {
		if x == sub {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	sub.mu.Lock()
	if !sub.closed {
		sub.closed = true
		close(sub.ready)
	}
	sub.mu.Unlock()
}

// MergeAd applies a delta — attributes to set, attributes to remove —
// to a base ad and returns the merged copy. The base is not modified
// (stored ads are immutable once published to the change feed).
func MergeAd(base, changes *classad.Ad, removed []string) *classad.Ad {
	merged := base.Copy()
	if changes != nil {
		for _, name := range changes.Names() {
			e, _ := changes.Lookup(name)
			merged.Set(name, e)
		}
	}
	for _, name := range removed {
		merged.Delete(name)
	}
	return merged
}

// DiffAds computes the delta that turns prev into next: an ad holding
// every attribute of next that is new or textually different in prev,
// and the names present in prev but gone from next. Attributes are
// compared with classad.SameExpr — equal exactly when their unparsed
// text, the canonical form the store journals, is — so a semantically
// identical re-parse never manufactures a spurious delta.
func DiffAds(prev, next *classad.Ad) (changes *classad.Ad, removed []string) {
	changes = classad.NewAd()
	for _, name := range next.Names() {
		ne, _ := next.Lookup(name)
		if pe, ok := prev.Lookup(name); ok && classad.SameExpr(pe, ne) {
			continue
		}
		changes.Set(name, ne)
	}
	for _, name := range prev.Names() {
		if _, ok := next.Lookup(name); !ok {
			removed = append(removed, name)
		}
	}
	return changes, removed
}

// ApplyDelta merges a wire delta into the stored ad: the entry under
// name must exist with sequence baseSeq; changes and removed are
// applied on top of it, the result stored under seq with a refreshed
// lifetime. An empty delta (no changes, no removals) is a pure
// heartbeat — it renews the lifetime and publishes nothing to the
// change feed. Any sequence mismatch (including an absent ad) returns
// ErrSeqMismatch so the advertiser falls back to a full ADVERTISE.
func (s *Store) ApplyDelta(name string, baseSeq, seq uint64, changes *classad.Ad, removed []string, lifetime int64) error {
	if lifetime <= 0 {
		lifetime = DefaultLifetime
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	key := classad.Fold(name)
	e, ok := s.ads[key]
	if !ok || e.seq != baseSeq {
		// The StaleDeltaApply mutant skips the sequence check and
		// patches whatever is stored — it still cannot patch an ad that
		// does not exist.
		if !s.Hooks.StaleDeltaApply || !ok {
			s.mDeltaMismatch.Inc()
			return fmt.Errorf("collector: ad %q: stored seq %d, delta base %d: %w",
				name, e.seq, baseSeq, ErrSeqMismatch)
		}
	}
	merged := MergeAd(e.ad, changes, removed)
	if mergedName, err := NameOf(merged); err != nil || classad.Fold(mergedName) != key {
		return fmt.Errorf("collector: delta for %q may not change the ad's Name", name)
	}
	expires := s.env.Now() + lifetime
	s.putLocked(key, entry{ad: merged, expires: expires, seq: seq})
	s.mStored.Inc()
	s.mDeltaApplied.Inc()
	if s.mDeltaBytesSaved != nil {
		// What the full ad would have cost on the wire, less the delta.
		deltaLen := len(removed)
		if changes != nil {
			deltaLen += len(changes.String())
		}
		if saved := len(merged.String()) - deltaLen; saved > 0 {
			s.mDeltaBytesSaved.Add(int64(saved))
		}
	}
	s.trackDaemonLocked(merged, key, expires)
	if !e.ad.Equal(merged) {
		s.publishLocked(Delta{Kind: DeltaChanged, Name: key, Ad: merged})
	}
	return s.journalUpdateLocked(merged, expires, seq)
}

// Version reports the store's pool-change counter: it advances once
// per published delta (add/change/expire/invalidate), so an unchanged
// Version between two reads means no matchable state changed — the
// signal a remote negotiator uses to skip an idle negotiation cycle.
// It is not persisted; a collector restart restarts it, which any
// cached comparison simply reads as "changed".
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	return s.version
}

// Seq reports the stored sequence number for name (0 if absent or the
// advertiser was not sequence-aware).
func (s *Store) Seq(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ads[classad.Fold(name)].seq
}
