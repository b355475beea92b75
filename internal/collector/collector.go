// Package collector implements the pool manager's advertisement store
// (paper §4): RAs and CAs "periodically send classads to a Condor pool
// manager, describing the resources and job queues respectively". The
// store keys ads by their Name attribute, expires ads that are not
// refreshed within their advertised lifetime, and answers the one-way
// queries that status and browse tools pose ("One-way matching
// protocols are used to find all objects matching a given pattern").
package collector

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/classad"
	"repro/internal/obs"
	"repro/internal/store"
)

// DefaultLifetime is how long an advertisement stays valid when the
// advertiser does not say: three negotiation cycles of the deployed
// system's five-minute period.
const DefaultLifetime int64 = 900

// entry is one stored advertisement.
type entry struct {
	ad      *classad.Ad
	expires int64 // absolute seconds; 0 means never
	// seq is the advertiser-assigned sequence number of this ad state;
	// an UPDATE_DELTA applies only against a matching seq (delta.go).
	seq uint64
}

// Store is a thread-safe advertisement store. The zero value is not
// usable; construct with New.
type Store struct {
	mu  sync.RWMutex
	ads map[string]entry // folded Name -> entry
	env *classad.Env
	// nextExpiry is a lower bound on the earliest deadline among ads:
	// no ad can be due before it, so pruneLocked returns at once until
	// the clock reaches it. Storing an ad lowers it; only a scan that
	// ran raises it, to the earliest deadline the scan saw. A renewal
	// therefore leaves it stale-low, which costs one scan that finds
	// nothing due, never a missed expiry. scans counts the scans run.
	nextExpiry int64
	scans      uint64

	// Durability (persist.go); nil for a plain in-memory store.
	log        *store.Log
	persistErr error
	// Negotiator leadership lease (lease.go).
	lease Lease

	// Change-feed subscribers (delta.go).
	subs []*Subscription
	// version counts published deltas — a cheap monotonic "did the
	// pool change" signal remote negotiators poll (not persisted: a
	// restart resets it, which reads as a change, which is correct).
	version uint64
	// Hooks are the seeded fault-injection points (delta.go); zero in
	// production.
	Hooks Hooks

	// Observability hooks; nil (no-op) until Instrument is called.
	mStored, mExpired, mInvalidated *obs.Counter
	mLeaseGrants, mLeaseTakeovers   *obs.Counter
	mDeltaApplied, mDeltaMismatch   *obs.Counter
	mDeltaBytesSaved, mSubOverflows *obs.Counter

	// daemons tracks self-advertising daemons (Type == "Daemon") past
	// their ads' expiry: unlike ordinary ads, a daemon that stops
	// advertising should be surfaced as missing, not silently dropped,
	// until daemonForgetLifetimes of its lifetimes have passed.
	daemons map[string]daemonEntry
}

// daemonForgetLifetimes bounds how long a missing daemon stays listed:
// its entry is forgotten once its self-ad has been expired for this
// many of its own lifetimes (20 minutes at the default 120 s).
const daemonForgetLifetimes = 10

// daemonEntry remembers one daemon's latest self-advertisement.
type daemonEntry struct {
	kind     string
	lastSeen int64
	expires  int64
}

// forgetAt is when pruneLocked drops the entry: daemonForgetLifetimes
// of the ad's lifetime past its expiry.
func (d daemonEntry) forgetAt() int64 {
	return d.expires + daemonForgetLifetimes*(d.expires-d.lastSeen)
}

// DaemonStatus is one daemon's health derived from its self-ads:
// "ok" while its latest ad is within lifetime, "missing" once the ad
// has expired without a refresh (the daemon died or is partitioned).
// Cleanly shut-down daemons INVALIDATE their ad and drop off the list
// entirely.
type DaemonStatus struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Status   string `json:"status"`
	LastSeen int64  `json:"last_seen"`
	// OverdueSeconds is how long past expiry the daemon has been
	// silent (0 while ok).
	OverdueSeconds int64 `json:"overdue_seconds,omitempty"`
}

// New returns an empty store reading time from env (nil for the
// process default).
func New(env *classad.Env) *Store {
	if env == nil {
		env = classad.DefaultEnv()
	}
	return &Store{ads: make(map[string]entry), env: env, nextExpiry: math.MaxInt64}
}

// Instrument routes store activity into reg's counters:
// collector_ads_stored_total (Update calls, i.e. new ads plus
// refreshes), collector_ads_expired_total (lifetime expiries),
// collector_ads_invalidated_total (explicit withdrawals),
// collector_lease_grants_total (leadership grants and renewals) and
// collector_lease_takeovers_total (epoch bumps: the lease changing
// hands), the delta counters (delta.go) and
// collector_subscription_overflows_total (change-feed queues collapsed
// to a resync marker). It also publishes the live ad count as the
// gauge collector_ads.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	s.mStored = reg.Counter("collector_ads_stored_total")
	s.mExpired = reg.Counter("collector_ads_expired_total")
	s.mInvalidated = reg.Counter("collector_ads_invalidated_total")
	s.mLeaseGrants = reg.Counter("collector_lease_grants_total")
	s.mLeaseTakeovers = reg.Counter("collector_lease_takeovers_total")
	s.mDeltaApplied = reg.Counter("collector_delta_applied_total")
	s.mDeltaMismatch = reg.Counter("collector_delta_mismatch_total")
	s.mDeltaBytesSaved = reg.Counter("collector_delta_bytes_saved_total")
	s.mSubOverflows = reg.Counter("collector_subscription_overflows_total")
	log := s.log
	s.mu.Unlock()
	reg.GaugeFunc("collector_ads", func() float64 { return float64(s.Len()) })
	if log != nil {
		log.Instrument(reg)
	}
}

// NameOf extracts the identity an ad is stored under.
func NameOf(ad *classad.Ad) (string, error) {
	v := ad.Eval(classad.AttrName)
	s, ok := v.StringVal()
	if !ok || s == "" {
		return "", fmt.Errorf("collector: advertisement has no usable Name attribute (got %s)", v.Type())
	}
	return s, nil
}

// Update stores or refreshes an advertisement. lifetime <= 0 selects
// DefaultLifetime. Re-advertising under the same Name replaces the
// previous ad, which is how agents publish state changes.
func (s *Store) Update(ad *classad.Ad, lifetime int64) error {
	return s.UpdateSeq(ad, lifetime, 0)
}

// UpdateSeq is Update with an explicit advertiser-assigned sequence
// number (the wire ADVERTISE's Seq field); seq 0 means the advertiser
// is not sequence-aware and the store assigns the successor of the
// stored sequence, so mixed full/delta refresh paths stay coherent.
func (s *Store) UpdateSeq(ad *classad.Ad, lifetime int64, seq uint64) error {
	name, err := NameOf(ad)
	if err != nil {
		return err
	}
	if lifetime <= 0 {
		lifetime = DefaultLifetime
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	key := classad.Fold(name)
	prev, existed := s.ads[key]
	if seq == 0 {
		seq = prev.seq + 1
	}
	expires := s.env.Now() + lifetime
	s.putLocked(key, entry{ad: ad, expires: expires, seq: seq})
	s.mStored.Inc()
	s.trackDaemonLocked(ad, key, expires)
	switch {
	case !existed:
		s.publishLocked(Delta{Kind: DeltaAdded, Name: key, Ad: ad})
	case !prev.ad.Equal(ad):
		s.publishLocked(Delta{Kind: DeltaChanged, Name: key, Ad: ad})
		// Content-identical refresh: a pure heartbeat publishes nothing.
		// Equal decides it (by the pointer, when the same ad is stored
		// again); the store keeps no rendered copy to compare with.
	}
	// Journal after applying: a failure leaves the ad live in memory
	// (harmless — it would simply be lost with the process) but
	// unacknowledged, so the advertiser retries (persist.go).
	return s.journalUpdateLocked(ad, expires, seq)
}

// putLocked stores e under key, keeping the expiry watermark a lower
// bound. The caller holds s.mu.
func (s *Store) putLocked(key string, e entry) {
	s.ads[key] = e
	if e.expires != 0 && e.expires < s.nextExpiry {
		s.nextExpiry = e.expires
	}
}

// trackDaemonLocked maintains the daemon-health map for ads of
// Type == "Daemon". The caller holds s.mu.
func (s *Store) trackDaemonLocked(ad *classad.Ad, key string, expires int64) {
	if typ, ok := ad.Eval(classad.AttrType).StringVal(); ok && classad.Fold(typ) == "daemon" {
		kind, _ := ad.Eval("Daemon").StringVal()
		if s.daemons == nil {
			s.daemons = make(map[string]daemonEntry)
		}
		s.daemons[key] = daemonEntry{kind: kind, lastSeen: s.env.Now(), expires: expires}
	}
}

// Invalidate removes the ad stored under name, reporting whether one
// was present. Agents send this on clean shutdown.
func (s *Store) Invalidate(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := classad.Fold(name)
	e, ok := s.ads[key]
	delete(s.ads, key)
	// A daemon invalidating its self-ad is announcing a clean
	// shutdown: stop tracking it rather than reporting it missing.
	delete(s.daemons, key)
	if ok {
		s.mInvalidated.Inc()
		s.publishLocked(Delta{Kind: DeltaInvalidated, Name: key, Ad: e.ad})
		// A journal failure here is tolerable in a way an Update failure
		// is not: a resurrected ad still carries its original absolute
		// expiry, so the worst case is the paper's ordinary weak
		// consistency — the ad lingers until its lifetime runs out. The
		// error is retained for PersistErr.
		s.journalLocked(persistRecord{Op: opInvalidate, Name: name})
	}
	return ok
}

// pruneLocked drops expired ads and forgotten daemon entries; the
// caller holds the write lock.
// Every operation that reads or writes ads calls it first, so an
// expiry is published by the first operation at or after the deadline;
// until the clock reaches the watermark that costs one comparison.
func (s *Store) pruneLocked() {
	now := s.env.Now()
	if now < s.nextExpiry {
		return
	}
	s.scans++
	next := int64(math.MaxInt64)
	for k, e := range s.ads {
		switch {
		case e.expires == 0:
		case e.expires <= now:
			delete(s.ads, k)
			s.mExpired.Inc()
			s.publishLocked(Delta{Kind: DeltaExpired, Name: k, Ad: e.ad})
		case e.expires < next:
			next = e.expires
		}
	}
	for k, d := range s.daemons {
		switch forget := d.forgetAt(); {
		case forget <= now:
			delete(s.daemons, k)
		case forget < next:
			next = forget
		}
	}
	s.nextExpiry = next
}

// Prune removes expired advertisements immediately.
func (s *Store) Prune() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
}

// Len reports the number of live advertisements.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	return len(s.ads)
}

// All returns the live advertisements, sorted by folded name for
// deterministic negotiation cycles.
func (s *Store) All() []*classad.Ad {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	keys := make([]string, 0, len(s.ads))
	for k := range s.ads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*classad.Ad, len(keys))
	for i, k := range keys {
		out[i] = s.ads[k].ad
	}
	return out
}

// Query returns the live ads matching a one-way query: only the
// query's constraint is evaluated, with the stored ad as the
// candidate.
func (s *Store) Query(query *classad.Ad) []*classad.Ad {
	var out []*classad.Ad
	for _, ad := range s.All() {
		if classad.MatchesQuery(query, ad, s.env) {
			out = append(out, ad)
		}
	}
	return out
}

// QueryProject is Query with a projection: each returned ad carries
// only the requested attributes (plus Name, always, so results stay
// identifiable). Projected attributes are evaluated to literals, so
// the caller sees values even when the stored attribute was an
// expression over other attributes of the ad. Tools browsing large
// pools use this to avoid shipping whole ads.
func (s *Store) QueryProject(query *classad.Ad, attrs []string) []*classad.Ad {
	full := s.Query(query)
	out := make([]*classad.Ad, 0, len(full))
	for _, ad := range full {
		p := classad.NewAd()
		if name, ok := ad.Eval(classad.AttrName).StringVal(); ok {
			p.SetString(classad.AttrName, name)
		}
		for _, a := range attrs {
			if classad.Fold(a) == classad.Fold(classad.AttrName) {
				continue
			}
			if _, ok := ad.Lookup(a); !ok {
				continue
			}
			p.Set(a, classad.Lit(ad.EvalEnv(a, s.env)))
		}
		out = append(out, p)
	}
	return out
}

// Lookup fetches the live ad stored under name.
func (s *Store) Lookup(name string) (*classad.Ad, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	e, ok := s.ads[classad.Fold(name)]
	if !ok {
		return nil, false
	}
	return e.ad, true
}

// DaemonHealth reports every self-advertising daemon the store has
// seen, sorted by name: "ok" while the latest self-ad is live,
// "missing" once it expired without a refresh or withdrawal — the
// absent-ad detection behind `cstatus -ha` and /daemons. The pool
// monitors itself through its own matchmaking substrate: daemons are
// just ads, and health is just expiry.
func (s *Store) DaemonHealth() []DaemonStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	now := s.env.Now()
	out := make([]DaemonStatus, 0, len(s.daemons))
	for name, d := range s.daemons {
		st := DaemonStatus{Name: name, Kind: d.kind, Status: "ok", LastSeen: d.lastSeen}
		if d.expires != 0 && d.expires <= now {
			st.Status = "missing"
			st.OverdueSeconds = now - d.expires
		}
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// SelectType returns live ads whose Type attribute equals t — the
// convenience the negotiator uses to split machines from jobs.
func (s *Store) SelectType(t string) []*classad.Ad {
	var out []*classad.Ad
	for _, ad := range s.All() {
		if typ, ok := ad.Eval(classad.AttrType).StringVal(); ok && classad.Fold(typ) == classad.Fold(t) {
			out = append(out, ad)
		}
	}
	return out
}
