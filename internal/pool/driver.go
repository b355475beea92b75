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
	"sort"
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
	// acquireLease acquires or renews the leadership lease for
	// collector.DefaultLeaseTTL. version is the pool-change counter
	// (collector.Store.Version) as of the reply: unchanged between two
	// reads, no stored ad changed in between.
	acquireLease(holder string) (lease collector.Lease, granted bool, version uint64, err error)
	// version reads that counter again, after a cycle's own writes (a
	// remote pool rides a lease renewal for it).
	version(holder string) (uint64, error)
	// feed brings eng up to date with the pool's ads.
	feed(eng *matchmaker.Incremental) error
	// query answers a one-way query over the pool's ads.
	query(q *classad.Ad) ([]*classad.Ad, error)
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

// localPool is the manager's own store: ads arrive over its change
// feed, withdrawals and self-ads go straight back in.
type localPool struct {
	store *collector.Store

	mu  sync.Mutex              // one drain at a time, pump and cycles alike
	sub *collector.Subscription // opened by the first feed
}

func (p *localPool) acquireLease(holder string) (collector.Lease, bool, uint64, error) {
	lease, granted, err := p.store.AcquireLease(holder, 0)
	return lease, granted, p.store.Version(), err
}

func (p *localPool) version(string) (uint64, error) { return p.store.Version(), nil }

// feed is a cycle's read of the pool: expiries are deltas too, so what
// is due is expired first. (The pump only drains: a full expiry scan
// per published delta would tax every advertiser.)
func (p *localPool) feed(eng *matchmaker.Incremental) error {
	p.store.Prune()
	p.drain(eng)
	return nil
}

// drain applies, in order, what the change feed queued since the last
// call — or, the first time, subscribes and seeds the engine with
// everything stored. One feeder at a time (mu): a second could apply an
// older batch after a newer. A subscription that overflowed lost
// deltas, so the engine re-syncs from the whole store and renegotiates
// everything.
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
	queued := p.sub.Drain()
	deltas := make([]matchmaker.AdDelta, 0, len(queued))
	for _, d := range queued {
		switch d.Kind {
		case collector.DeltaResync:
			eng.Sync(engineSnapshot(p.store.All()))
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

func (p *localPool) query(q *classad.Ad) ([]*classad.Ad, error) {
	return p.store.Query(q), nil
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

func (p *remotePool) acquireLease(holder string) (collector.Lease, bool, uint64, error) {
	return p.client.AcquireLeaseSeq(holder, 0)
}

func (p *remotePool) version(holder string) (uint64, error) {
	_, _, version, err := p.client.AcquireLeaseSeq(holder, 0)
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

func (p *remotePool) query(q *classad.Ad) ([]*classad.Ad, error) { return p.client.Query(q) }

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

	notifier Notifier
	history  io.Writer
	hooks    *Hooks

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
	// usageLoaded says the fair-share table holds the pool's usage as
	// of leading under usageEpoch (0 without HA): a cycle under any
	// other epoch loads it again (loadUsage).
	usageLoaded bool
	usageEpoch  uint64

	mu       sync.Mutex
	cycles   int
	leader   bool
	epoch    uint64 // last lease epoch held (0 when never elected)
	deadline int64  // that lease's deadline (pool-clock seconds)
	lastSeen uint64 // highest epoch ever observed (ours or a peer's)
}

// newNegotiator builds a negotiator on the pool clock env (nil for
// the process default). The fair-share table starts on that clock, so
// usage charged before the first cycle decays from when it was charged.
func newNegotiator(src, self string, pool adPool, env *classad.Env, cfg matchmaker.Config) *negotiator {
	n := &negotiator{
		src: src, self: self, pool: pool,
		mm:       matchmaker.New(cfg),
		env:      env,
		logf:     func(string, ...any) {},
		notifier: Sender{},
		hooks:    &Hooks{},
	}
	n.mm.Usage().Advance(float64(n.now()))
	n.eng = matchmaker.NewIncremental(n.mm)
	return n
}

// now reads the pool clock.
func (n *negotiator) now() int64 {
	if n.env == nil {
		return classad.DefaultEnv().Now()
	}
	return n.env.Now()
}

// instrument routes the negotiator's activity into o: per-cycle
// histograms (pool_cycle_seconds, pool_cycle_requests,
// pool_cycle_matches), notification failures
// (pool_notify_errors_total), leadership changes
// (negotiator_failovers_total — this negotiator taking over from a
// different leader — and negotiator_standby_ticks_total), plus the
// matchmaker's and the engine's own metrics.
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
}

// Leader reports whether the lease was held at the last cycle, and the
// last epoch held (0 when never elected).
func (n *negotiator) Leader() (bool, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader, n.epoch
}

// Cycles reports how many cycles (or heartbeats) have run.
func (n *negotiator) Cycles() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cycles
}

// Usage exposes the fair-share accounting table.
func (n *negotiator) Usage() *matchmaker.PriorityTable { return n.mm.Usage() }

// Engine exposes the negotiation engine.
func (n *negotiator) Engine() *matchmaker.Incremental { return n.eng }

// CycleResult summarizes one negotiation cycle.
type CycleResult struct {
	Requests, Offers int
	Matches          []matchmaker.Match
	// Notified counts matches the notifier took: for Sender, those
	// whose customer acknowledged the MATCH (the provider may not have).
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
func (n *negotiator) cycle(holder string, force bool) (CycleResult, matchmaker.WakeStats) {
	n.cycleMu.Lock()
	defer n.cycleMu.Unlock()
	start := time.Now()                                          //determguard:ok the cycle's wall time is telemetry, never pool state
	elapsed := func() time.Duration { return time.Since(start) } //determguard:ok as above
	n.mu.Lock()
	n.cycles++
	n.mu.Unlock()
	var res CycleResult
	var stats matchmaker.WakeStats

	if holder != "" {
		lease, granted, version, err := n.pool.acquireLease(holder)
		if err != nil {
			// Pool unreachable: we cannot prove we still hold the lease,
			// so behave as a standby and match nothing.
			n.logf("%s %s: lease: %v", n.src, holder, err)
		}
		n.observeLease(holder, lease, granted && err == nil)
		if err != nil || !granted {
			res.Standby, res.Epoch, res.Duration = true, lease.Epoch, elapsed()
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
			res.Skipped, res.Duration = true, elapsed()
			return res, stats
		}
	}

	n.settledKnown = false
	// Usage decays on the pool clock; the table reads it once a cycle.
	n.mm.Usage().Advance(float64(n.now()))
	if !n.usageLoaded || n.usageEpoch != res.Epoch {
		// First cycle, or first under a new epoch: whatever this
		// negotiator charged before, the pool's newest usage is in the
		// leader's Negotiator ad. Without it a new leader would bill
		// from a stale table, so the cycle waits for the load.
		if err := n.loadUsage(); err != nil {
			n.logf("%s: loading usage from the pool: %v", n.src, err)
			res.Duration = elapsed()
			return res, stats
		}
		n.usageLoaded, n.usageEpoch = true, res.Epoch
	}
	if err := n.pool.feed(n.eng); err != nil {
		n.logf("%s: reading the pool: %v", n.src, err)
		res.Duration = elapsed()
		return res, stats
	}
	res.Matches, stats = n.eng.Recompute()
	res.Requests, res.Offers = stats.Requests, stats.Offers
	for _, match := range res.Matches {
		nt, err := n.notice(match, res.Epoch)
		if err == nil {
			err = n.notifier.Notify(nt) //lockguard:ok cycleMu exists to make a whole cycle, Sender's I/O included, exclusive; its only contenders are other cycles
		}
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
		if nt.charged {
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
	res.Duration = elapsed()
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
		after, err := n.pool.version(holder)
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

// negotiatorAdLifetime keeps a Negotiator ad, the only durable home of
// fair-share usage, in the collector through negotiator downtime: ten
// half-lives, after which any usage it carries has decayed below 0.1 %.
const negotiatorAdLifetime = 10 * matchmaker.DefaultHalfLife

// publishSelf advertises the negotiator's own classad after each cycle
// — "All entities are represented with classads" (paper §4), the
// matchmaker included — and, when instrumented, its Daemon-type health
// ad (selfad.go). Status tools can then browse cycle statistics, the
// fair-share table and who leads under which epoch with the same
// one-way queries they use for machines:
//
//	cstatus -constraint 'other.Type == "Negotiator"' -long
//
// The ad is also where usage survives the negotiator: the table rides
// in it as a list of [ Customer = "…"; Usage = r ] records, decayed to
// UsageAsOf on the pool clock, and a negotiator taking over loads it
// back (loadUsage). A charge is therefore durable once the cycle that
// made it has published.
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
	usage, asOf := n.mm.Usage().Snapshot()
	if n.hooks.SkipUsagePublish {
		usage = nil
	}
	customers := make([]string, 0, len(usage))
	for c := range usage {
		customers = append(customers, c)
	}
	sort.Strings(customers)
	records := make([]classad.Expr, len(customers))
	for i, c := range customers {
		rec := classad.NewAd()
		rec.SetString("Customer", c)
		rec.SetReal("Usage", usage[c])
		records[i] = classad.NewAdExpr(rec)
	}
	ad.Set("Usage", classad.NewList(records...))
	ad.SetInt("UsageAsOf", int64(asOf)) // the pool clock counts whole seconds
	if err := n.pool.advertise(ad, negotiatorAdLifetime); err != nil {
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
	if err := n.pool.advertise(health, daemonAdLifetime); err != nil {
		n.logf("%s: publishing negotiator self-ad: %v", n.src, err)
	}
}

// loadUsage replaces the fair-share table with the usage published in
// the pool's Negotiator ad of the highest Epoch (the latest UsageAsOf
// breaks a tie; a non-HA manager's ad has no Epoch), decayed from that
// ad's UsageAsOf. Ordering by Epoch keeps a deposed leader's late ad
// from overriding its successor's. A pool holding no such ad leaves
// the table as it is.
func (n *negotiator) loadUsage() error {
	ads, err := n.pool.query(classad.MustParse(`[ Constraint = other.Type == "Negotiator" ]`))
	if err != nil {
		return err
	}
	var best *classad.Ad
	var bestEpoch int64
	var bestAsOf float64
	for _, ad := range ads {
		asOf, ok := ad.Eval("UsageAsOf").NumberVal()
		if !ok {
			continue
		}
		epoch, _ := ad.Eval("Epoch").IntVal()
		if best == nil || epoch > bestEpoch || epoch == bestEpoch && asOf > bestAsOf {
			best, bestEpoch, bestAsOf = ad, epoch, asOf
		}
	}
	if best == nil {
		return nil
	}
	records, _ := best.Eval("Usage").ListVal()
	usage := make(map[string]float64, len(records))
	for _, r := range records {
		rec, ok := r.AdVal()
		if !ok {
			continue
		}
		customer, okC := rec.Eval("Customer").StringVal()
		u, okU := rec.Eval("Usage").NumberVal()
		if okC && okU {
			usage[customer] = u
		}
	}
	n.mm.Usage().Restore(usage, bestAsOf)
	return nil
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
	rec.SetInt("Time", n.now())
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

// Notifier takes each match's Notice from the cycle, in match order,
// under the cycle's lock (so Notify must not run a cycle). On a nil
// error the cycle books the match (history record, request withdrawal);
// on an error the request stays for the next cycle.
type Notifier interface{ Notify(*Notice) error }

// Sender is the production Notifier: it sends each Notice at once, over
// Dialer (nil selects netx.DefaultDialer) with the customer's MATCH
// retried under Retry, and reports the verdict before it returns.
type Sender struct {
	Dialer *netx.Dialer
	Retry  netx.RetryPolicy
}

func (s Sender) Notify(nt *Notice) error {
	reply, err := nt.Send(s.Dialer, s.Retry)
	if err == nil {
		nt.Verdict(reply.Accepted)
	}
	return err
}

// Notice is one match's MATCH hand-off: the customer's envelope and the
// provider's advisory copy, which lacks the request's name and the
// provider's ticket. The customer's verdict comes back through Verdict.
type Notice struct {
	Match              matchmaker.Match
	Customer, Provider protocol.Envelope

	neg     *negotiator
	span    *obs.SpanRec
	charged bool
}

// notice builds match's Notice, stamped with epoch (non-zero under HA,
// for the CA's fence), and opens the notify span both envelopes carry.
func (n *negotiator) notice(match matchmaker.Match, epoch uint64) (*Notice, error) {
	session, err := protocol.NewSession()
	if err != nil {
		return nil, err
	}
	trace, parent := match.Trace, match.Span
	if trace == "" {
		trace = classad.TraceOf(match.Request)
	}
	if parent == "" {
		parent = classad.TraceSpanOf(match.Request)
	}
	sp := n.obs.Spans().Start(trace, parent, n.src, "notify")
	sp.Set("request", adName(match.Request))
	sp.Set("offer", adName(match.Offer))
	nt := &Notice{Match: match, neg: n, span: sp, Customer: protocol.Envelope{
		Type:    protocol.TypeMatch,
		Name:    adName(match.Request),
		PeerAd:  protocol.EncodeAd(match.Offer),
		Session: session,
		Trace:   trace,
		Span:    sp.ID(),
		Epoch:   epoch,
	}}
	nt.Customer.Ticket, _ = match.Offer.Eval(classad.AttrTicket).StringVal()
	nt.Provider = nt.Customer
	nt.Provider.Name, nt.Provider.Ticket, nt.Provider.PeerAd = "", "", protocol.EncodeAd(match.Request)
	return nt, nil
}

// Send notifies both parties over d, ends the notify span and returns
// the customer's reply, whose Accepted says the claim was granted. The
// customer's MATCH is idempotent (a duplicate finds the job no longer
// idle, or its session already claimed for), so it is retried under
// retry; the provider's copy is advisory, so a failure is only logged.
func (nt *Notice) Send(d *netx.Dialer, retry netx.RetryPolicy) (*protocol.Envelope, error) {
	var reply *protocol.Envelope
	if err := netx.Retry(context.Background(), retry, func() error {
		var err error
		reply, err = sendToContact(d, nt.Match.Request, &nt.Customer)
		return err
	}); err != nil {
		nt.span.Fail(err.Error())
		nt.span.End()
		return nil, fmt.Errorf("pool: notify customer: %w", err)
	}
	if _, err := sendToContact(d, nt.Match.Offer, &nt.Provider); err != nil {
		nt.neg.logf("pool: notify provider: %v", err)
	}
	nt.span.Set("claim_accepted", fmt.Sprint(reply.Accepted))
	nt.span.End()
	return reply, nil
}

// Verdict charges the customer one unit if accepted, the claim was
// granted, and only then: a match that bounces off claim-time
// revalidation costs nothing (modelcheck invariant MC104).
func (nt *Notice) Verdict(accepted bool) {
	if !accepted {
		return
	}
	owner := matchmaker.OwnerOf(nt.Match.Request)
	nt.neg.mm.Usage().Record(owner, 1)
	if nt.neg.hooks.DoubleCharge {
		nt.neg.mm.Usage().Record(owner, 1)
	}
	nt.charged = true
}
