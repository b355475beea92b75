package pool

// The negotiation driver: the one function that runs a cycle, under
// every entry point. Manager.RunCycle (the caller's ticker),
// EventLoop.Wake (the store's change feed) and NegotiatorDaemon.Tick
// (the remote heartbeat) all call negotiator.cycle; what differs is
// only where the ads come from and where withdrawals go — the local
// collector.Store or a remote collector.Client, behind adPool.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// adPool is the ad pool as a negotiator sees it.
type adPool interface {
	// acquireLease acquires or renews the leadership lease. version is
	// the pool-change counter (collector.Store.Version) as of the
	// reply: unchanged between two reads, no stored ad changed in
	// between.
	acquireLease(holder string, ttl int64) (lease collector.Lease, granted bool, version uint64, err error)
	// version reads that counter again, after a cycle's own writes (a
	// remote pool rides a lease renewal for it).
	version(holder string, ttl int64) (uint64, error)
	// feed brings eng up to date with the pool's ads.
	feed(eng *matchmaker.Incremental) error
	// invalidate withdraws the ad stored under name.
	invalidate(name string) error
	// advertise stores one of the negotiator's own ads.
	advertise(ad *classad.Ad, lifetime int64) error
}

// engineDelta is the one place the pool decides what a stored ad is to
// the negotiation engine: Type "Job" is a request; negotiator and
// daemon self-ads are monitoring state, not matchable (passed on as a
// removal, so a name that used to be matchable stops being, and one
// that never was wakes nobody); everything else — including ads with
// no Type — is an offer. Records are keyed by the folded ad name, so
// service order and rank tie-breaks follow the store's sorted
// snapshot.
func engineDelta(key string, ad *classad.Ad) matchmaker.AdDelta {
	typ, _ := ad.Eval(classad.AttrType).StringVal()
	switch classad.Fold(typ) {
	case "job":
		return matchmaker.AdDelta{Kind: matchmaker.AdRequest, Key: key, Ad: ad}
	case "negotiator", "daemon":
		return matchmaker.AdDelta{Kind: matchmaker.AdRemove, Key: key}
	}
	return matchmaker.AdDelta{Kind: matchmaker.AdOffer, Key: key, Ad: ad}
}

// engineSnapshot converts a full pool listing (Store.All, or a remote
// query) for Incremental.Sync. Ads without a usable Name cannot have
// been stored and are skipped.
func engineSnapshot(ads []*classad.Ad) []matchmaker.AdDelta {
	out := make([]matchmaker.AdDelta, 0, len(ads))
	for _, ad := range ads {
		if name, err := collector.NameOf(ad); err == nil {
			out = append(out, engineDelta(classad.Fold(name), ad))
		}
	}
	return out
}

// FeedFromStore brings eng up to date with store through sub, the
// engine's subscription to it: it applies, in order, every delta
// queued since the last call. A subscription that overflowed
// (collector.DeltaResync) lost deltas, so the engine is re-synced from
// the whole store and told to renegotiate everything. At most one
// goroutine at a time may feed an engine from a subscription — a
// second one could apply an older batch after a newer.
func FeedFromStore(eng *matchmaker.Incremental, store *collector.Store, sub *collector.Subscription) {
	queued := sub.Drain()
	deltas := make([]matchmaker.AdDelta, 0, len(queued))
	for _, d := range queued {
		switch d.Kind {
		case collector.DeltaResync:
			eng.Sync(engineSnapshot(store.All()))
			eng.MarkAllDirty()
			return
		case collector.DeltaExpired, collector.DeltaInvalidated:
			deltas = append(deltas, matchmaker.AdDelta{Kind: matchmaker.AdRemove, Key: d.Name})
		default:
			deltas = append(deltas, engineDelta(d.Name, d.Ad))
		}
	}
	eng.Apply(deltas...)
}

// localPool is the manager's own store: ads arrive over its change
// feed, withdrawals and self-ads go straight back in.
type localPool struct {
	store *collector.Store

	// mu makes "take a batch off the subscription and apply it" one
	// step (FeedFromStore's rule): deltas reach the engine in store
	// order even with the event loop's pump and a cycle both feeding.
	mu  sync.Mutex
	sub *collector.Subscription // opened by the first feed
}

func (p *localPool) acquireLease(holder string, ttl int64) (collector.Lease, bool, uint64, error) {
	lease, granted, err := p.store.AcquireLease(holder, ttl)
	return lease, granted, p.store.Version(), err
}

func (p *localPool) version(string, int64) (uint64, error) { return p.store.Version(), nil }

// feed is a cycle's read of the pool: expiries are deltas too, so what
// is due is expired first. (The pump only drains: a full expiry scan
// per published delta would tax every advertiser.)
func (p *localPool) feed(eng *matchmaker.Incremental) error {
	p.store.Prune()
	p.drain(eng)
	return nil
}

// drain applies what the change feed has queued — or, the first time,
// subscribes and seeds the engine with everything stored.
func (p *localPool) drain(eng *matchmaker.Incremental) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sub == nil {
		// Subscribe first, then seed: a change racing the snapshot is
		// delivered both ways, and upserts are idempotent.
		p.sub = p.store.Subscribe()
		eng.Sync(engineSnapshot(p.store.All()))
		return
	}
	FeedFromStore(eng, p.store, p.sub)
}

func (p *localPool) invalidate(name string) error {
	p.store.Invalidate(name)
	return nil
}

func (p *localPool) advertise(ad *classad.Ad, lifetime int64) error {
	return p.store.Update(ad, lifetime)
}

// ready is the subscription's wake-up channel (nil, blocking forever,
// before the first feed).
func (p *localPool) ready() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sub == nil {
		return nil
	}
	return p.sub.Ready()
}

func (p *localPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sub != nil {
		p.sub.Close()
	}
}

// remotePool is a collector across the wire: each feed is a query
// snapshot diffed into the engine.
type remotePool struct {
	client *collector.Client
	// deltas refreshes the negotiator's self-ads with UPDATE_DELTA
	// envelopes (full ads only when attributes actually changed).
	deltas *collector.DeltaAdvertiser
}

func (p *remotePool) acquireLease(holder string, ttl int64) (collector.Lease, bool, uint64, error) {
	return p.client.AcquireLeaseSeq(holder, ttl)
}

func (p *remotePool) version(holder string, ttl int64) (uint64, error) {
	_, _, version, err := p.client.AcquireLeaseSeq(holder, ttl)
	return version, err
}

func (p *remotePool) feed(eng *matchmaker.Incremental) error {
	all, err := p.client.Query(classad.NewAd())
	if err != nil {
		return err
	}
	eng.Sync(engineSnapshot(all))
	return nil
}

func (p *remotePool) invalidate(name string) error { return p.client.Invalidate(name) }

func (p *remotePool) advertise(ad *classad.Ad, lifetime int64) error {
	return p.deltas.Advertise(ad, lifetime)
}

// negotiator is the negotiating half of a pool manager — the matchmaker,
// its engine, and the bookkeeping around a cycle — shared by Manager
// (co-located with the store) and NegotiatorDaemon (remote).
type negotiator struct {
	src  string // event and span source: "manager" or "negotiator"
	self string // Name of the published Negotiator ad
	pool adPool
	mm   *matchmaker.Matchmaker
	eng  *matchmaker.Incremental
	env  *classad.Env
	logf func(string, ...any)

	dialer      *netx.Dialer
	notifyRetry netx.RetryPolicy
	history     io.Writer
	ledger      *matchmaker.UsageLedger
	usageFile   string

	// Observability hooks; nil (no-op) until instrument is called.
	obs           *obs.Obs
	hCycleSeconds *obs.Histogram
	hCycleReqs    *obs.Histogram
	hCycleMatches *obs.Histogram
	mNotifyErrors *obs.Counter
	mFailovers    *obs.Counter
	mStandby      *obs.Counter

	// cycleMu serialises cycles; it also guards the idle-skip state:
	// settled is the pool-change counter read after the last cycle's
	// own writes, known only if that cycle left nothing to retry (no
	// failed notification or feed) — otherwise the next one may not be
	// skipped.
	cycleMu      sync.Mutex
	settled      uint64
	settledKnown bool

	mu       sync.Mutex
	cycles   int
	leader   bool
	epoch    uint64 // last lease epoch held (0 when never elected)
	deadline int64  // that lease's deadline (pool-clock seconds)
	lastSeen uint64 // highest epoch ever observed (ours or a peer's)
}

func newNegotiator(src, self string, pool adPool, cfg matchmaker.Config, ledger *matchmaker.UsageLedger) *negotiator {
	n := &negotiator{
		src: src, self: self, pool: pool,
		mm:     matchmaker.New(cfg),
		env:    cfg.Env,
		logf:   func(string, ...any) {},
		dialer: netx.DefaultDialer,
		ledger: ledger,
	}
	if ledger != nil {
		n.mm.SetUsage(ledger.Table())
	}
	n.eng = matchmaker.NewIncremental(n.mm)
	return n
}

// instrument routes the negotiator's activity into o: per-cycle
// histograms (pool_cycle_seconds, pool_cycle_requests,
// pool_cycle_matches), notification failures
// (pool_notify_errors_total), leadership changes
// (negotiator_failovers_total — this negotiator taking over from a
// different leader — and negotiator_standby_ticks_total), plus the
// matchmaker's, the engine's and the ledger's own metrics.
func (n *negotiator) instrument(o *obs.Obs) {
	n.obs = o
	reg := o.Registry()
	n.hCycleSeconds = reg.Histogram("pool_cycle_seconds", obs.DurationBuckets)
	n.hCycleReqs = reg.Histogram("pool_cycle_requests", obs.CountBuckets)
	n.hCycleMatches = reg.Histogram("pool_cycle_matches", obs.CountBuckets)
	n.mNotifyErrors = reg.Counter("pool_notify_errors_total")
	n.mFailovers = reg.Counter("negotiator_failovers_total")
	n.mStandby = reg.Counter("negotiator_standby_ticks_total")
	n.mm.Instrument(o)
	n.eng.InstrumentEngine(o)
	if n.ledger != nil {
		n.ledger.Instrument(reg)
	}
}

// leadership reports whether the negotiator held the lease at its last
// cycle, and under which epoch.
func (n *negotiator) leadership() (bool, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader, n.epoch
}

// CycleResult summarizes one negotiation cycle.
type CycleResult struct {
	Requests, Offers int
	Matches          []matchmaker.Match
	// Notified counts matches whose parties were both reachable.
	Notified int
	// Charged counts matches whose customer acknowledged a granted
	// claim — the only ones that billed fair-share usage.
	Charged int
	// Errors collects notification failures (unreachable contacts).
	Errors []error
	// Standby is true when an HA-enrolled negotiator ran the cycle
	// without holding the leadership lease: nothing was matched.
	Standby bool
	// Skipped is true when a remote negotiator's heartbeat held the
	// lease but skipped negotiation because the pool had not changed.
	Skipped bool
	// Epoch is the leadership epoch the cycle ran under (0 without HA).
	Epoch uint64
	// Duration is the cycle's wall time.
	Duration time.Duration
}

// cycle runs one negotiation cycle (paper §4: "Periodically, the pool
// manager enters a negotiation cycle"): hold the leadership lease, bring
// the engine up to date with the pool, recompute the assignment, and
// invoke the matchmaking protocol for every match — sending each party
// the other's ad, the session identifier, and (to the customer) the
// provider's authorization ticket.
//
// holder enrolls the cycle in leader election under that identity ("" for
// the classic single-negotiator pool): a cycle that cannot get (or keep)
// the lease is a standby no-op, because a concurrent leader may be
// granting the same offers. Unless force is set, a lease-holding cycle is
// skipped when the pool-change counter has not moved since the last
// cycle's own writes and that cycle left nothing to retry.
//
// Recompute returns every live match, not only the new ones. Matches
// notified in earlier cycles have left the pool (their requests were
// withdrawn), so re-notification only reaches matches whose
// notification failed — the retry.
func (n *negotiator) cycle(holder string, ttl int64, force bool) (CycleResult, matchmaker.WakeStats) {
	n.cycleMu.Lock()
	defer n.cycleMu.Unlock()
	start := time.Now()
	n.mu.Lock()
	n.cycles++
	n.mu.Unlock()
	var res CycleResult
	var stats matchmaker.WakeStats

	if holder != "" {
		lease, granted, version, err := n.pool.acquireLease(holder, ttl)
		if err != nil {
			// Pool unreachable: we cannot prove we still hold the lease,
			// so behave as a standby and match nothing.
			n.logf("%s %s: lease: %v", n.src, holder, err)
		}
		n.observeLease(holder, lease, granted && err == nil)
		if err != nil || !granted {
			res.Standby, res.Epoch, res.Duration = true, lease.Epoch, time.Since(start)
			n.obs.Events().Record(obs.Span{
				Src: n.src, Name: "wake", Start: start, End: start.Add(res.Duration), Err: "standby",
				Fields: map[string]string{
					"leader": lease.Holder,
					"epoch":  fmt.Sprint(lease.Epoch),
				},
			})
			return res, stats
		}
		res.Epoch = lease.Epoch
		if !force && n.settledKnown && version == n.settled {
			res.Skipped, res.Duration = true, time.Since(start)
			return res, stats
		}
	}

	n.settledKnown = false
	if err := n.pool.feed(n.eng); err != nil {
		n.logf("%s: reading the pool: %v", n.src, err)
		res.Duration = time.Since(start)
		return res, stats
	}
	res.Matches, stats = n.eng.Recompute()
	res.Requests, res.Offers = stats.Requests, stats.Offers
	for _, match := range res.Matches {
		accepted, err := n.notify(match, res.Epoch) //lockguard:ok cycleMu exists to make a whole cycle, I/O included, exclusive; its only contenders are other cycles
		if err != nil {
			res.Errors = append(res.Errors, err)
			n.mNotifyErrors.Inc()
			n.obs.Events().Emit(match.Trace, n.src, "notify_failed", map[string]string{
				"request": adName(match.Request),
				"offer":   adName(match.Offer),
				"error":   err.Error(),
			})
			continue
		}
		res.Notified++
		if accepted {
			// The claim landed: now — and only now — the customer is
			// charged. A match that bounces off claim-time revalidation
			// costs nothing (modelcheck invariant MC104 is the backstop).
			n.mm.Usage().Record(matchmaker.OwnerOf(match.Request), 1)
			res.Charged++
		}
		n.logMatch(match)
		// The matched request leaves the pool: its CA will re-advertise
		// if the claim falls through. The provider ad stays — its ticket
		// is consumed by the claim, so a stale re-match is caught by the
		// claiming protocol, which is exactly the weak-consistency
		// design.
		if name, err := collector.NameOf(match.Request); err == nil {
			if err := n.pool.invalidate(name); err != nil {
				n.logf("%s: invalidate %s: %v", n.src, name, err)
			}
		}
	}
	if n.ledger != nil {
		if err := n.ledger.MaybeCompact(); err != nil {
			n.logf("%s: compacting usage ledger: %v", n.src, err)
		}
		if err := n.ledger.Err(); err != nil {
			n.logf("%s: usage ledger: %v", n.src, err)
		}
	} else if n.usageFile != "" {
		if err := n.mm.Usage().Save(n.usageFile); err != nil {
			n.logf("%s: saving usage history: %v", n.src, err)
		}
	}
	res.Duration = time.Since(start)
	n.hCycleSeconds.Observe(res.Duration.Seconds())
	n.hCycleReqs.Observe(float64(res.Requests))
	n.hCycleMatches.Observe(float64(len(res.Matches)))
	n.obs.Events().Record(obs.Span{
		Src: n.src, Name: "wake", Start: start, End: start.Add(res.Duration),
		Fields: map[string]string{
			"requests": fmt.Sprint(res.Requests),
			"offers":   fmt.Sprint(res.Offers),
			"deltas":   fmt.Sprint(stats.Deltas),
			"dirty":    fmt.Sprint(stats.Dirty),
			"full":     fmt.Sprint(stats.FullRebuild),
			"matches":  fmt.Sprint(len(res.Matches)),
			"notified": fmt.Sprint(res.Notified),
			"errors":   fmt.Sprint(len(res.Errors)),
		},
	})
	n.publishSelf(holder, res)
	if holder != "" && len(res.Errors) == 0 {
		// Read the counter after our own writes (invalidations,
		// self-ads), so the next heartbeat compares against the
		// post-cycle pool. A third-party write racing this read is
		// absorbed into the baseline; the caller's periodic force is
		// the safety net, like the in-process fallback rebuild.
		after, err := n.pool.version(holder, ttl)
		n.settled, n.settledKnown = after, err == nil
	}
	return res, stats
}

// observeLease folds one lease reply into the leadership state.
func (n *negotiator) observeLease(holder string, lease collector.Lease, granted bool) {
	n.mu.Lock()
	was, prev := n.leader, n.epoch
	n.leader = granted
	if lease.Epoch > n.lastSeen {
		n.lastSeen = lease.Epoch
	}
	if granted {
		n.epoch, n.deadline = lease.Epoch, lease.Deadline
	}
	n.mu.Unlock()
	switch {
	case !granted:
		n.mStandby.Inc()
		if was {
			n.logf("%s %s: deposed (leader epoch %d)", n.src, holder, lease.Epoch)
		}
	case !was && lease.Epoch > 1 && lease.Epoch != prev:
		// Taking over from a different leader (epoch bumped), not a
		// pool's very first election and not our own renewal after a
		// hiccup.
		n.mFailovers.Inc()
		n.logf("%s %s: taking over as leader, epoch %d", n.src, holder, lease.Epoch)
	}
}

// publishSelf advertises the negotiator's own classad after each cycle
// — "All entities are represented with classads" (paper §4), the
// matchmaker included — and, when instrumented, its Daemon-type health
// ad (selfad.go). Status tools can then browse cycle statistics, the
// fair-share table and who leads under which epoch with the same
// one-way queries they use for machines:
//
//	cstatus -constraint 'other.Type == "Negotiator"' -long
func (n *negotiator) publishSelf(holder string, res CycleResult) {
	ad := classad.NewAd()
	ad.SetString(classad.AttrType, "Negotiator")
	ad.SetString(classad.AttrName, n.self)
	n.mu.Lock()
	ad.SetInt("Cycle", int64(n.cycles))
	if holder != "" {
		ad.SetString("Leader", holder)
		ad.SetInt("Epoch", int64(n.epoch))
		ad.SetInt("LeaseDeadline", n.deadline)
	}
	n.mu.Unlock()
	ad.SetInt("LastRequests", int64(res.Requests))
	ad.SetInt("LastOffers", int64(res.Offers))
	ad.SetInt("LastMatches", int64(len(res.Matches)))
	ad.SetInt("LastNotified", int64(res.Notified))
	// The fair-share table, as a nested ad: user -> decayed usage.
	usage := classad.NewAd()
	table := n.mm.Usage()
	for _, customer := range table.Customers() {
		usage.SetReal(customer, table.Effective(customer))
	}
	ad.Set("Usage", classad.NewAdExpr(usage))
	if err := n.pool.advertise(ad, 0); err != nil {
		n.logf("%s: publishing negotiator ad: %v", n.src, err)
	}
	if n.obs == nil {
		return // no health to report
	}
	if holder == "" {
		holder = "pool"
	}
	health := DaemonAd("negotiator", holder, n.obs)
	health.SetInt("LeaderEpoch", int64(res.Epoch))
	if n.ledger != nil {
		health.SetInt("WALGeneration", int64(n.ledger.Stats().Gen))
	}
	if err := n.pool.advertise(health, daemonAdLifetime); err != nil {
		n.logf("%s: publishing negotiator self-ad: %v", n.src, err)
	}
}

// logMatch appends one match record — itself a classad — to the
// history writer: an append-only accounting log queryable with the same
// one-way matching the status tools use (cmd/chistory).
func (n *negotiator) logMatch(match matchmaker.Match) {
	if n.history == nil {
		return
	}
	rec := classad.NewAd()
	rec.SetString(classad.AttrType, "Match")
	env := n.env
	if env == nil {
		env = classad.DefaultEnv()
	}
	rec.SetInt("Time", env.Now())
	n.mu.Lock()
	rec.SetInt("Cycle", int64(n.cycles))
	n.mu.Unlock()
	if owner, ok := match.Request.Eval(classad.AttrOwner).StringVal(); ok {
		rec.SetString("Customer", owner)
	}
	if name, ok := match.Request.Eval(classad.AttrName).StringVal(); ok {
		rec.SetString("RequestName", name)
	}
	if name, ok := match.Offer.Eval(classad.AttrName).StringVal(); ok {
		rec.SetString("OfferName", name)
	}
	rec.SetReal("RequestRank", match.RequestRank)
	rec.SetReal("OfferRank", match.OfferRank)
	if _, err := fmt.Fprintln(n.history, rec.String()); err != nil {
		n.logf("%s: writing history: %v", n.src, err)
	}
}

// notify runs the matchmaking protocol for one match: a MATCH envelope
// to each party's Contact address carrying the peer's ad and the
// request's trace ID; the customer's copy also carries the provider's
// ticket. epoch, when non-zero, is the sender's leadership epoch — the
// CA fences out envelopes whose epoch has been superseded. Traced
// matches (the request ad carries a TraceId) propagate the trace into
// both envelopes and record a notify span.
//
// accepted reports whether the customer's ack carried Accepted — the
// claim was granted — which is the signal fair-share charging keys on.
// A CA predating the flag acks without it; such a pool simply stops
// charging, which is the conservative failure mode (customers are
// under- rather than over-billed).
func (n *negotiator) notify(match matchmaker.Match, epoch uint64) (accepted bool, err error) {
	session, err := protocol.NewSession()
	if err != nil {
		return false, err
	}
	ticket, _ := match.Offer.Eval(classad.AttrTicket).StringVal()
	trace := match.Trace
	if trace == "" {
		trace = classad.TraceOf(match.Request)
	}
	parent := match.Span
	if parent == "" {
		parent = classad.TraceSpanOf(match.Request)
	}
	sp := n.obs.Spans().Start(trace, parent, n.src, "notify")
	sp.Set("request", adName(match.Request))
	sp.Set("offer", adName(match.Offer))

	// Customer first: it drives the claiming protocol, for the request
	// the envelope names. MATCH is idempotent for the CA (a duplicate
	// lands after the job left the idle state, or carries the session
	// it already claimed for, and is acknowledged as stale), so
	// transport failures are retried with backoff before the match is
	// abandoned to the next cycle.
	if err := netx.Retry(context.Background(), n.notifyRetry, func() error {
		reply, err := sendToContact(n.dialer, match.Request, &protocol.Envelope{
			Type:    protocol.TypeMatch,
			Name:    adName(match.Request),
			PeerAd:  protocol.EncodeAd(match.Offer),
			Ticket:  ticket,
			Session: session,
			Trace:   trace,
			Span:    sp.ID(),
			Epoch:   epoch,
		})
		if err != nil {
			return err
		}
		accepted = reply.Accepted
		return nil
	}); err != nil {
		sp.Fail(err.Error())
		sp.End()
		return false, fmt.Errorf("pool: notify customer: %w", err)
	}
	// Provider notification is advisory; a provider without a
	// reachable contact still works because the claim itself carries
	// everything the RA needs. One bounded attempt is enough.
	if _, err := sendToContact(n.dialer, match.Offer, &protocol.Envelope{
		Type:    protocol.TypeMatch,
		PeerAd:  protocol.EncodeAd(match.Request),
		Session: session,
		Trace:   trace,
		Span:    sp.ID(),
		Epoch:   epoch,
	}); err != nil {
		n.logf("pool: notify provider: %v", err)
	}
	sp.Set("claim_accepted", fmt.Sprint(accepted))
	sp.End()
	return accepted, nil
}
