package pool

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/classad/analysis"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/store"
)

// CustomerDaemon exposes a Customer Agent over TCP: it advertises the
// queue's idle jobs, receives MATCH notifications from the pool
// manager (Figure 3 step 3), and drives the claiming protocol against
// the matched provider (step 4). A PREEMPT notice returns the job to
// the queue for the next cycle.
type CustomerDaemon struct {
	CA *agent.Customer

	// IdleTimeout bounds a handler's wait for the next envelope; 0
	// selects netx.DefaultIdleTimeout. Set before Listen/Serve.
	IdleTimeout time.Duration
	// ClaimTimeout is the absolute deadline on one whole claim
	// round-trip (dial-to-verdict, challenge included). On expiry the
	// claim counts as rejected and the job stays idle for
	// re-matching — the paper's claim-retry path (§3.2). Defaults to
	// netx.DefaultIOTimeout.
	ClaimTimeout time.Duration

	// collectors are the pools this CA participates in. The first is
	// the home pool; additional entries are flock targets (in the
	// tradition of "A Worldwide Flock of Condors", the paper's
	// reference [3]): idle jobs advertise to every pool, whichever
	// matchmaker finds a match first wins, and a second pool's
	// belated match is rejected harmlessly at claim-initiation time
	// because the job is no longer idle — weak consistency again.
	collectors []*collector.Client
	lifetime   int64
	dialer     *netx.Dialer
	retry      netx.RetryPolicy

	mu      sync.Mutex
	srv     *netx.Server
	contact string
	closed  bool
	logf    func(string, ...any)

	// claims maps job ID -> provider contact for release.
	claims map[int]claimRef
	// sessions maps an idle job to the Session of the last MATCH that
	// ran a claim for it, so a redelivered MATCH (its reply was lost)
	// does not claim a second time. A granted claim drops the entry.
	sessions map[int]string
	// journal, when enabled, persists the claim lifecycle so a CA
	// restart neither leaks held providers nor forgets running jobs
	// (claimjournal.go).
	journal *ClaimJournal
	// highestEpoch is the match-fencing high-water mark: MATCH
	// notifications carrying a lower (non-zero) negotiator epoch are
	// from a deposed leader and are rejected.
	highestEpoch uint64
	// stats
	claimsOK, claimsRejected int
	maxClaimDur              time.Duration

	// Observability hooks; nil (no-op) until Instrument is called.
	obs              *obs.Obs
	events           *obs.Spans
	spans            *obs.Spans
	mClaimAttempts   *obs.Counter
	mClaimOK         *obs.Counter
	mClaimRejected   *obs.Counter
	mClaimFailed     *obs.Counter
	mReleaseRequeued *obs.Counter
	mPreemptsRx      *obs.Counter
	mFenced          *obs.Counter
	mLintErrors      *obs.Counter
	mLintWarnings    *obs.Counter
	mLintUnindexable *obs.Counter
	hClaimSeconds    *obs.Histogram
	gHandlers        *obs.Gauge

	// shadow serves remote syscalls and checkpoints for this CA's
	// executing jobs, when execution is enabled.
	shadow     *remote.Shadow
	shadowAddr string
}

type claimRef struct {
	contact string
	machine string
	trace   string
}

// NewCustomerDaemon builds a daemon around a CA.
func NewCustomerDaemon(ca *agent.Customer, collectorAddr string, lifetime int64, logf func(string, ...any)) *CustomerDaemon {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &CustomerDaemon{
		CA:           ca,
		ClaimTimeout: netx.DefaultIOTimeout,
		collectors:   []*collector.Client{{Addr: collectorAddr}},
		lifetime:     lifetime,
		dialer:       netx.DefaultDialer,
		logf:         logf,
		claims:       make(map[int]claimRef),
		sessions:     make(map[int]string),
	}
}

// Instrument routes claim-lifecycle activity into o: attempts,
// verdicts and transport failures (pool_claim_attempts_total,
// pool_claims_ok_total, pool_claims_rejected_total,
// pool_claims_failed_total), releases kept for retry
// (pool_release_requeued_total), eviction notices received
// (pool_preempts_received_total), static-analysis findings on
// submitted job ads (pool_submit_lint_errors_total,
// pool_submit_lint_warnings_total, plus
// pool_submit_lint_unindexable_total for jobs the offer index cannot
// prune on), the end-to-end claim latency from
// MATCH receipt to the provider's verdict ack (pool_claim_seconds),
// live notification handlers (pool_ca_handlers gauge), and settled jobs
// the queue forgot past its bound (pool_ca_jobs_forgotten_total). Claim
// log entries carry the job's trace from the MATCH envelope. Call
// before Listen/Serve.
func (d *CustomerDaemon) Instrument(o *obs.Obs) {
	reg := o.Registry()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obs = o
	d.events = o.Events()
	d.spans = o.Spans()
	d.mClaimAttempts = reg.Counter("pool_claim_attempts_total")
	d.mClaimOK = reg.Counter("pool_claims_ok_total")
	d.mClaimRejected = reg.Counter("pool_claims_rejected_total")
	d.mClaimFailed = reg.Counter("pool_claims_failed_total")
	d.mReleaseRequeued = reg.Counter("pool_release_requeued_total")
	d.mPreemptsRx = reg.Counter("pool_preempts_received_total")
	d.mFenced = reg.Counter("pool_fenced_matches_total")
	d.mLintErrors = reg.Counter("pool_submit_lint_errors_total")
	d.mLintWarnings = reg.Counter("pool_submit_lint_warnings_total")
	d.mLintUnindexable = reg.Counter("pool_submit_lint_unindexable_total")
	d.hClaimSeconds = reg.Histogram("pool_claim_seconds", obs.DurationBuckets)
	d.gHandlers = reg.Gauge("pool_ca_handlers")
	d.CA.Instrument(reg)
}

// emit logs one CA entry under the given trace.
func (d *CustomerDaemon) emit(trace, name string, fields map[string]string) {
	d.mu.Lock()
	ev := d.events
	d.mu.Unlock()
	ev.Emit(trace, "ca", name, fields)
}

// spansRef reads the span ring under the lock (nil until Instrument).
func (d *CustomerDaemon) spansRef() *obs.Spans {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.spans
}

// ConfigureNetwork sets the dialer and retry policy used for all of
// the daemon's outbound traffic (collector heartbeats, claim dials,
// releases). Call before Listen/Serve.
func (d *CustomerDaemon) ConfigureNetwork(dialer *netx.Dialer, retry netx.RetryPolicy) {
	if dialer == nil {
		dialer = netx.DefaultDialer
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dialer = dialer
	d.retry = retry
	for _, c := range d.collectors {
		c.Dialer = dialer
		c.Retry = retry
	}
}

// EnableExecution gives the CA a shadow: jobs carrying
// WantRemoteSyscalls with In/Out attributes will actually execute on
// the machines that claim them, doing all I/O against fs at this site.
// Returns the shadow's address (also stamped into claim ads as
// ShadowContact).
func (d *CustomerDaemon) EnableExecution(fs *remote.FileStore) (string, error) {
	shadow := remote.NewShadow(fs, d.logf)
	addr, err := shadow.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	d.shadow = shadow
	d.shadowAddr = addr
	d.mu.Unlock()
	return addr, nil
}

// Shadow exposes the CA's shadow, when execution is enabled.
func (d *CustomerDaemon) Shadow() *remote.Shadow {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.shadow
}

// EnableJournal attaches a durable claim journal rooted at dir and
// reconciles any state a previous incarnation left behind. fs selects
// the filesystem (nil for the real one). Call before Listen/Serve.
//
// Reconciliation follows the journal's phase per claim:
//
//   - "claiming" — the process died between the begin record and the
//     verdict, so the outcome is unknown: the provider may be holding a
//     claim nobody remembers. An idempotent RELEASE is sent (a provider
//     that never granted it just acknowledges), and the job requeues by
//     staying idle.
//   - "granted" — the provider is holding the claim and the job was
//     running there. If the job is still in the queue it is restored to
//     Running with its claim reference intact, so completion and
//     release work as if the restart never happened; a job no longer in
//     the queue gets its claim released rather than leaked.
//
// The journaled negotiator-epoch high-water mark is restored too, so
// fencing survives the restart.
func (d *CustomerDaemon) EnableJournal(dir string, fs store.FS) error {
	j, err := OpenClaimJournal(dir, fs)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.journal = j
	d.highestEpoch = j.Epoch()
	d.mu.Unlock()
	for _, c := range j.Live() {
		switch c.Phase {
		case PhaseGranted:
			if job, ok := d.CA.Job(c.Job); ok {
				if job.Status == agent.JobIdle {
					if err := d.CA.MarkRunning(c.Job, c.Machine); err != nil {
						d.logf("ca %s: reconcile job %d: %v", d.CA.Owner(), c.Job, err)
					}
				}
				d.mu.Lock()
				d.claims[c.Job] = claimRef{contact: c.Contact, machine: c.Machine}
				d.mu.Unlock()
				continue
			}
			// The queue no longer knows this job: release the provider
			// rather than leak it.
			fallthrough
		case PhaseClaiming:
			if err := d.sendRelease(c.Contact, ""); err != nil {
				// Provider unreachable; keep the journal record so the
				// next restart retries the release.
				d.logf("ca %s: reconcile release of %s failed: %v", d.CA.Owner(), c.Machine, err)
				continue
			}
			j.Release(c.Job)
			d.emit("", "claim_reconciled", map[string]string{
				"job":     fmt.Sprintf("%d", c.Job),
				"machine": c.Machine,
				"phase":   c.Phase,
			})
		}
	}
	return nil
}

// Journal exposes the claim journal, when enabled.
func (d *CustomerDaemon) Journal() *ClaimJournal {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.journal
}

// HighestEpoch reports the fencing high-water mark.
func (d *CustomerDaemon) HighestEpoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.highestEpoch
}

// AddFlockTarget registers an additional pool whose collector receives
// this CA's idle-job advertisements.
func (d *CustomerDaemon) AddFlockTarget(collectorAddr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.collectors = append(d.collectors, &collector.Client{
		Addr: collectorAddr, Dialer: d.dialer, Retry: d.retry,
	})
}

// Listen binds the notification endpoint.
func (d *CustomerDaemon) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return d.Serve(ln), nil
}

// Serve starts the notification endpoint on an existing listener
// (which chaos tests wrap in a netx.FaultListener) and returns the
// contact address.
func (d *CustomerDaemon) Serve(ln net.Listener) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.srv = netx.Serve(ln, netx.ServerConfig{
		Name:        "ca " + d.CA.Owner(),
		Logf:        d.logf,
		IdleTimeout: d.IdleTimeout,
		Handlers:    d.gHandlers,
	}, netx.Dispatch(d.dispatch))
	d.contact = d.srv.Addr()
	return d.contact
}

// Contact returns the daemon's notification address.
func (d *CustomerDaemon) Contact() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.contact
}

// Close stops the daemon and its shadow, closing the connections its
// handlers serve.
func (d *CustomerDaemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	srv := d.srv
	shadow := d.shadow
	journal := d.journal
	d.mu.Unlock()
	srv.Close()
	if shadow != nil {
		shadow.Close()
	}
	if journal != nil {
		journal.Close()
	}
}

// ClaimStats reports accepted and rejected claim attempts.
func (d *CustomerDaemon) ClaimStats() (ok, rejected int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.claimsOK, d.claimsRejected
}

// MaxClaimDuration reports the longest single claim round-trip so
// far — chaos tests assert it never exceeds ClaimTimeout (plus the
// dial bound).
func (d *CustomerDaemon) MaxClaimDuration() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maxClaimDur
}

// AdvertiseIdle sends one request ad per idle job to every pool this
// CA participates in, each stamped with the daemon's Contact and a
// unique Name (paper §4: CAs advertise "per-customer queues of
// submitted jobs, represented as lists of classads").
func (d *CustomerDaemon) AdvertiseIdle() error {
	d.mu.Lock()
	clients := append([]*collector.Client(nil), d.collectors...)
	o := d.obs
	d.mu.Unlock()
	// The CA's own Daemon-type health ad rides along with the queue (to
	// the home pool only — flock targets monitor their own daemons):
	// absent-ad detection in `cstatus -ha` then covers CAs too.
	if o != nil && len(clients) > 0 {
		if err := clients[0].Advertise(DaemonAd("ca", d.CA.Owner(), o), daemonAdLifetime); err != nil {
			d.logf("ca %s: advertising daemon ad: %v", d.CA.Owner(), err)
		}
	}
	for _, ad := range d.CA.IdleRequests() {
		stamped := ad.Copy()
		stamped.SetString(classad.AttrContact, d.Contact())
		id, _ := agent.JobIDOf(ad)
		stamped.SetString(classad.AttrName, jobName(d.CA.Owner(), id))
		for _, c := range clients {
			if err := c.Advertise(stamped, d.lifetime); err != nil {
				return err
			}
		}
	}
	return nil
}

// dispatch answers one envelope on the notification endpoint.
func (d *CustomerDaemon) dispatch(env *protocol.Envelope) *protocol.Envelope {
	switch env.Type {
	case protocol.TypeMatch:
		return d.handleMatch(env)
	case protocol.TypePreempt:
		return d.handlePreempt(env)
	case protocol.TypeSubmit:
		return d.handleSubmit(env)
	case protocol.TypeQuery:
		return d.handleQuery(env)
	case protocol.TypeJobDone:
		return d.handleJobDone(env)
	default:
		return protocol.Errorf("customer daemon does not handle %s", env.Type)
	}
}

// handleMatch receives a match notification and immediately runs the
// claiming protocol against the provider. The matchmaker is done; from
// here on the two parties speak directly.
func (d *CustomerDaemon) handleMatch(env *protocol.Envelope) *protocol.Envelope {
	// Epoch fencing: a MATCH stamped with a negotiator epoch below the
	// highest we have seen comes from a deposed leader that has not yet
	// noticed its lease lapsed. Honouring it could double-grant a
	// provider the new leader is also matching, so it is refused
	// outright. Epoch 0 marks a non-HA negotiator and passes unfenced.
	if env.Epoch > 0 {
		d.mu.Lock()
		high := d.highestEpoch
		if env.Epoch > high {
			d.highestEpoch = env.Epoch
		}
		j := d.journal
		d.mu.Unlock()
		if env.Epoch < high {
			d.mFenced.Inc()
			d.emit(env.Trace, "match_fenced", map[string]string{
				"epoch":   fmt.Sprintf("%d", env.Epoch),
				"current": fmt.Sprintf("%d", high),
			})
			// The refusal is part of the trace: a fenced MATCH shows up
			// as an errored span, so `cstatus -trace` explains why the
			// deposed leader's introduction went nowhere.
			sp := d.spansRef().Start(env.Trace, env.Span, "ca", "match_fenced")
			sp.Fail(fmt.Sprintf("stale negotiator epoch %d (current %d)", env.Epoch, high))
			sp.End()
			return protocol.Errorf("stale negotiator epoch %d (current %d)", env.Epoch, high)
		}
		if env.Epoch > high && j != nil {
			if _, err := j.ObserveEpoch(env.Epoch); err != nil {
				d.logf("ca %s: journal epoch: %v", d.CA.Owner(), err)
			}
		}
	}
	machine, err := protocol.DecodeAd(env.PeerAd)
	if err != nil {
		return protocol.Errorf("bad peer ad: %v", err)
	}
	job, stale := d.matchedJob(env, machine)
	if stale != "" {
		// Not an error: with flocking, a second pool's match for a job
		// that already started elsewhere lands here; the match was
		// simply stale and the provider will be re-advertised.
		return &protocol.Envelope{Type: protocol.TypeAck, Reason: stale}
	}
	// The claim carries a contactable copy of the job ad so the RA
	// can reach this CA later (e.g. to deliver a PREEMPT notice),
	// plus the shadow address when this CA executes jobs for real.
	claimAd := job.Ad.Copy()
	claimAd.SetString(classad.AttrContact, d.Contact())
	d.mu.Lock()
	if d.shadowAddr != "" {
		claimAd.SetString("ShadowContact", d.shadowAddr)
	}
	d.mu.Unlock()
	// The attempt is journaled before the CLAIM is sent: if we die past
	// this point, reconciliation knows a claim may be outstanding and
	// will release it. A journal that cannot record the attempt vetoes
	// it — an untracked claim is exactly the leak the journal exists to
	// prevent.
	providerContact, _ := machine.Eval(classad.AttrContact).StringVal()
	d.mu.Lock()
	journal := d.journal
	d.mu.Unlock()
	if journal != nil {
		if err := journal.Begin(job.ID, adName(machine), providerContact); err != nil {
			return protocol.Errorf("claim journal: %v", err)
		}
	}
	// Claim latency is measured end to end: from MATCH receipt here to
	// the provider's verdict (or failure), the paper's step-3-to-step-4
	// gap a customer actually experiences.
	trace := env.Trace
	if trace == "" {
		trace = classad.TraceOf(job.Ad)
	}
	sp := d.spansRef().Start(trace, env.Span, "ca", "claim")
	sp.Set("machine", adName(machine))
	sp.Set("job", fmt.Sprintf("%d", job.ID))
	d.mClaimAttempts.Inc()
	start := time.Now()
	accepted, reason, err := d.claim(machine, claimAd, env.Ticket, trace, sp.ID())
	dur := time.Since(start)
	d.hClaimSeconds.Observe(dur.Seconds())
	d.mu.Lock()
	if dur > d.maxClaimDur {
		d.maxClaimDur = dur
	}
	d.mu.Unlock()
	if err != nil {
		// The provider is dead, wedged past the claim deadline, or
		// the connection was cut. The job was never marked running,
		// so it simply stays Idle and re-advertises next cycle — the
		// claim-retry path of §3.2; nothing is lost. The notification
		// itself is acknowledged: the matchmaker's introduction was
		// delivered, it just didn't pan out. The journal keeps the
		// "claiming" record: the dial may have half-landed, so the
		// next reconcile sends the idempotent RELEASE.
		d.mu.Lock()
		d.claimsRejected++
		d.mu.Unlock()
		d.mClaimFailed.Inc()
		sp.Fail(err.Error())
		sp.End()
		d.emit(trace, "claim_failed", map[string]string{
			"machine": adName(machine),
			"job":     fmt.Sprintf("%d", job.ID),
			"session": env.Session,
			"error":   err.Error(),
		})
		d.logf("ca %s: claim of %s failed, job %d requeued: %v",
			d.CA.Owner(), adName(machine), job.ID, err)
		return &protocol.Envelope{Type: protocol.TypeAck,
			Reason: fmt.Sprintf("claim failed: %v", err)}
	}
	d.mu.Lock()
	if accepted {
		d.claimsOK++
	} else {
		d.claimsRejected++
	}
	d.mu.Unlock()
	if !accepted {
		// Weak consistency at work: the provider's state moved on.
		// The job stays idle and will be re-advertised next cycle. The
		// provider itself said no, so no claim is outstanding and the
		// journal record can go.
		if journal != nil {
			journal.Abort(job.ID)
		}
		d.mClaimRejected.Inc()
		sp.Set("outcome", "rejected")
		sp.Set("reason", reason)
		sp.End()
		d.emit(trace, "claim_rejected", map[string]string{
			"machine": adName(machine),
			"job":     fmt.Sprintf("%d", job.ID),
			"session": env.Session,
			"reason":  reason,
		})
		d.logf("ca %s: claim of %s rejected: %s", d.CA.Owner(), adName(machine), reason)
		return &protocol.Envelope{Type: protocol.TypeAck, Reason: reason}
	}
	d.mClaimOK.Inc()
	sp.Set("outcome", "granted")
	sp.End()
	d.emit(trace, "claim_ok", map[string]string{
		"machine":    adName(machine),
		"job":        fmt.Sprintf("%d", job.ID),
		"session":    env.Session,
		"latency_ms": fmt.Sprintf("%d", dur.Milliseconds()),
	})
	if journal != nil {
		journal.Grant(job.ID)
	}
	if err := d.CA.MarkRunning(job.ID, adName(machine)); err != nil {
		return protocol.Errorf("%v", err)
	}
	d.mu.Lock()
	d.claims[job.ID] = claimRef{contact: providerContact, machine: adName(machine), trace: trace}
	delete(d.sessions, job.ID)
	d.mu.Unlock()
	// Accepted tells the notifying negotiator the claim actually
	// landed: that ack — not the match itself — is what charges the
	// customer's fair-share usage. Every other return path leaves
	// Accepted false, so bounced matches never bill.
	return &protocol.Envelope{Type: protocol.TypeAck, Accepted: true}
}

// matchedJob resolves a MATCH to the job it introduces, or says why
// the MATCH is stale. The matchmaker names the request it paired with
// the machine, and that job is claimed if it is still idle; a job that
// is not — it started elsewhere, or the MATCH is a late duplicate — is
// not replaced by another job the matchmaker never paired with this
// machine. Nor is a job claimed twice for one MATCH: a MATCH delivered
// again with the Session of the last claim attempt (its reply was lost
// and the negotiator retried) is stale too. A MATCH that names no
// request, from a notifier that predates the name, goes to the first
// idle job whose constraint accepts the machine, in submission order.
func (d *CustomerDaemon) matchedJob(env *protocol.Envelope, machine *classad.Ad) (agent.Job, string) {
	if env.Name == "" {
		for _, ad := range d.CA.IdleRequests() {
			if !classad.Match(ad, machine).Matched {
				continue
			}
			if id, ok := agent.JobIDOf(ad); ok {
				if j, ok := d.CA.Job(id); ok {
					return j, ""
				}
			}
		}
		return agent.Job{}, fmt.Sprintf("no idle job wants machine %s", adName(machine))
	}
	id, ok := jobIDOfName(d.CA.Owner(), env.Name)
	var job agent.Job
	if ok {
		job, ok = d.CA.Job(id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !ok || job.Status != agent.JobIdle {
		delete(d.sessions, id)
		return agent.Job{}, fmt.Sprintf("stale match: %s is not an idle job", env.Name)
	}
	if env.Session != "" {
		if d.sessions[id] == env.Session {
			return agent.Job{}, fmt.Sprintf("stale match: %s was already claimed for this match", env.Name)
		}
		d.sessions[id] = env.Session
	}
	return job, ""
}

// jobName is the Name a job's request ad is advertised under.
func jobName(owner string, id int) string {
	return fmt.Sprintf("%s/job%d", owner, id)
}

// jobIDOfName is jobName's inverse for owner's jobs.
func jobIDOfName(owner, name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, owner+"/job")
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(rest)
	return id, err == nil
}

// claim runs the claiming protocol with the provider, answering a
// challenge if one is issued, on a connection from the dialer's cache.
// The whole exchange — however many envelopes the handshake takes —
// runs under one absolute deadline (ClaimTimeout), so a wedged provider
// can never stall the CA's notification handler beyond the configured
// bound. CLAIM is never replayed: a claim that fails on a cached
// connection the provider has dropped is a failed claim, like a failed
// dial, and the job stays idle for the next cycle.
func (d *CustomerDaemon) claim(machine, jobAd *classad.Ad, ticket, trace, span string) (bool, string, error) {
	contact, ok := machine.Eval(classad.AttrContact).StringVal()
	if !ok || contact == "" {
		return false, "", errors.New("provider ad has no Contact")
	}
	var reply *protocol.Envelope
	err := d.dialer.Do(contact, d.ClaimTimeout, false, func(c *netx.Conn) error {
		var err error
		reply, err = protocol.Exchange(c, c.Reader(), &protocol.Envelope{
			Type:   protocol.TypeClaim,
			Ad:     protocol.EncodeAd(jobAd),
			Ticket: ticket,
			Trace:  trace,
			Span:   span,
		})
		if err != nil || reply.Type != protocol.TypeChallenge {
			return err
		}
		reply, err = protocol.Exchange(c, c.Reader(), &protocol.Envelope{
			Type: protocol.TypeChalReply,
			MAC:  protocol.Respond(ticket, reply.Nonce),
		})
		return err
	})
	if err != nil {
		return false, "", err
	}
	switch reply.Type {
	case protocol.TypeClaimReply:
		return reply.Accepted, reply.Reason, nil
	case protocol.TypeError:
		return false, reply.Reason, nil
	default:
		return false, "", fmt.Errorf("unexpected claim reply %s", reply.Type)
	}
}

// handlePreempt processes an eviction notice from an RA: the job
// returns to Idle and will be re-advertised.
func (d *CustomerDaemon) handlePreempt(env *protocol.Envelope) *protocol.Envelope {
	jobAd, err := protocol.DecodeAd(env.Ad)
	if err != nil {
		return protocol.Errorf("bad preempt ad: %v", err)
	}
	id, ok := agent.JobIDOf(jobAd)
	if !ok {
		return protocol.Errorf("preempt notice without JobId")
	}
	if err := d.CA.Evicted(id); err != nil {
		return protocol.Errorf("%v", err)
	}
	d.mu.Lock()
	delete(d.claims, id)
	j := d.journal
	d.mu.Unlock()
	if j != nil {
		j.Release(id) // the RA evicted us; nothing left to hold
	}
	d.mPreemptsRx.Inc()
	d.emit(env.Trace, "preempted", map[string]string{
		"job": fmt.Sprintf("%d", id),
	})
	return &protocol.Envelope{Type: protocol.TypeAck}
}

// handleSubmit queues a job ad delivered by the submission tool. The
// envelope's Lifetime field carries the job's CPU demand in seconds
// (zero is fine for protocol-only use). The ad is statically analyzed
// on the way in: findings never reject the job (the submitter may know
// better), but they are logged and counted so a pool operator can see
// queues filling with requests that can never match.
//
// Submission is where a causal trace begins: the handler honours a
// trace the submitter minted (env.Trace) or mints one itself, records
// the root "submit" span, and stamps TraceId/TraceSpan into the ad so
// every later hop — collector storage, negotiation (possibly many
// cycles later, possibly under a failed-over negotiator), claim,
// verdict — parents its spans back here. The trace ID returns to the
// submitter in the ack's Trace field.
func (d *CustomerDaemon) handleSubmit(env *protocol.Envelope) *protocol.Envelope {
	ad, err := protocol.DecodeAd(env.Ad)
	if err != nil {
		return protocol.Errorf("bad job ad: %v", err)
	}
	trace := env.Trace
	if trace == "" {
		trace = classad.TraceOf(ad)
	}
	if trace == "" {
		trace = obs.NewTraceID()
	}
	d.mu.Lock()
	spans := d.spans
	d.mu.Unlock()
	sp := spans.Start(trace, env.Span, "ca", "submit")
	sp.Set("owner", d.CA.Owner())
	ad.SetString(classad.AttrTraceID, trace)
	if id := sp.ID(); id != "" {
		ad.SetString(classad.AttrTraceSpan, id)
	}
	for _, diag := range analysis.AnalyzeAd(ad, nil) {
		if diag.Severity >= analysis.Error {
			d.mLintErrors.Inc()
		} else {
			d.mLintWarnings.Inc()
		}
		d.logf("ca %s: submit lint: %s", d.CA.Owner(), diag)
	}
	// Index-friendliness: a job the offer index cannot prune on costs
	// a full pool scan every negotiation cycle. Counted separately so
	// an operator can spot scan pressure building in the queue.
	for _, diag := range matchmaker.LintIndex(ad, nil) {
		if diag.Code == analysis.CodeUnindexable {
			d.mLintUnindexable.Inc()
		} else if diag.Severity >= analysis.Error {
			d.mLintErrors.Inc()
		}
		d.logf("ca %s: submit lint: %s", d.CA.Owner(), diag)
	}
	j := d.CA.Submit(ad, float64(env.Lifetime))
	sp.Set("job", fmt.Sprintf("%d", j.ID))
	sp.End()
	return &protocol.Envelope{Type: protocol.TypeAck,
		Name:  jobName(d.CA.Owner(), j.ID),
		Trace: trace}
}

// handleJobDone settles the queue when a starter ran the job to
// completion: the job is credited its full work and the claim record
// dropped (the RA already released its side).
func (d *CustomerDaemon) handleJobDone(env *protocol.Envelope) *protocol.Envelope {
	jobAd, err := protocol.DecodeAd(env.Ad)
	if err != nil {
		return protocol.Errorf("bad job-done ad: %v", err)
	}
	id, ok := agent.JobIDOf(jobAd)
	if !ok {
		return protocol.Errorf("job-done without JobId")
	}
	j, ok := d.CA.Job(id)
	if !ok {
		return protocol.Errorf("no job %d", id)
	}
	if _, err := d.CA.Progress(id, j.Work-j.Done, false); err != nil {
		return protocol.Errorf("%v", err)
	}
	d.mu.Lock()
	delete(d.claims, id)
	journal := d.journal
	d.mu.Unlock()
	if journal != nil {
		journal.Release(id) // the RA released its side on completion
	}
	return &protocol.Envelope{Type: protocol.TypeAck}
}

// handleQuery answers a one-way query over the queue: each job is
// rendered as its ad augmented with live status attributes (JobStatus,
// RemoteHost, Evictions), and the query's constraint filters them —
// the per-queue flavour of the paper's "tools to check on the status
// of job queues".
func (d *CustomerDaemon) handleQuery(env *protocol.Envelope) *protocol.Envelope {
	query, err := protocol.DecodeAd(env.Ad)
	if err != nil {
		return protocol.Errorf("bad query: %v", err)
	}
	var out []string
	for _, j := range d.CA.Snapshot() {
		ad := j.Ad.Copy()
		ad.SetString("JobStatus", string(j.Status))
		if j.Resource != "" {
			ad.SetString("RemoteHost", j.Resource)
		}
		ad.SetInt("Evictions", int64(j.Evictions))
		ad.SetReal("WorkDone", j.Done)
		ad.SetReal("WorkTotal", j.Work)
		if classad.MatchesQuery(query, ad, nil) {
			out = append(out, protocol.EncodeAd(ad))
		}
	}
	return &protocol.Envelope{Type: protocol.TypeQueryReply, Ads: out}
}

// Complete finishes a running job: credit its full remaining work and
// release the claim ("When the CA finishes using the resource, it
// relinquishes the claim"). Complete is idempotent: when a RELEASE is
// lost in transit the claim record is kept, and calling Complete
// again retries only the release — the queue bookkeeping is not
// redone — so a provider briefly unreachable at completion time is
// freed as soon as connectivity returns.
func (d *CustomerDaemon) Complete(jobID int) error {
	j, ok := d.CA.Job(jobID)
	if !ok {
		return fmt.Errorf("pool: no job %d", jobID)
	}
	if j.Status == agent.JobRunning {
		if _, err := d.CA.Progress(jobID, j.Work-j.Done, false); err != nil {
			return err
		}
	}
	d.mu.Lock()
	ref, had := d.claims[jobID]
	delete(d.claims, jobID)
	d.mu.Unlock()
	if !had {
		return nil
	}
	err := d.sendRelease(ref.contact, ref.trace)
	if err == nil {
		d.mu.Lock()
		journal := d.journal
		d.mu.Unlock()
		if journal != nil {
			journal.Release(jobID)
		}
	}
	if err != nil {
		// The release never landed: remember the claim so a later
		// Complete call can retry it once the provider is reachable.
		d.mu.Lock()
		if _, exists := d.claims[jobID]; !exists {
			d.claims[jobID] = ref
		}
		d.mu.Unlock()
		d.mReleaseRequeued.Inc()
		d.emit(ref.trace, "release_requeued", map[string]string{
			"job":     fmt.Sprintf("%d", jobID),
			"machine": ref.machine,
			"error":   err.Error(),
		})
	}
	return err
}

// sendRelease delivers one RELEASE to a provider contact, on a
// connection from the dialer's cache. RELEASE is idempotent (the RA acknowledges a duplicate release of an
// already-unclaimed machine), so transport failures retry with
// backoff. If the provider is truly gone the claim dies with it — its
// ad expires and the machine returns via re-advertising.
func (d *CustomerDaemon) sendRelease(contact, trace string) error {
	return netx.Retry(context.Background(), d.retry, func() error {
		var reply *protocol.Envelope
		if err := d.dialer.Do(contact, 0, protocol.Idempotent(protocol.TypeRelease), func(c *netx.Conn) error {
			var err error
			reply, err = protocol.Exchange(c, c.Reader(), &protocol.Envelope{
				Type: protocol.TypeRelease, Name: d.CA.Owner(), Trace: trace,
			})
			return err
		}); err != nil {
			return err
		}
		if reply.Type == protocol.TypeError {
			return netx.Permanent(errors.New(reply.Reason))
		}
		return nil
	})
}

func adName(ad *classad.Ad) string {
	s, _ := ad.Eval(classad.AttrName).StringVal()
	return s
}
