package pool

import (
	"net"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/remote"
)

// ResourceDaemon exposes a Resource-owner Agent over TCP: it serves
// the claiming protocol (CLAIM / RELEASE, optionally guarded by a
// challenge-response handshake) and acknowledges MATCH notifications.
// It advertises to the collector on demand.
type ResourceDaemon struct {
	RA *agent.Resource

	// RequireChallenge makes the daemon demand an HMAC handshake
	// before considering a claim (paper §3.2 "Authentication").
	RequireChallenge bool

	// IdleTimeout bounds a handler's wait for the next envelope; 0
	// selects netx.DefaultIdleTimeout. Set before Listen/Serve.
	IdleTimeout time.Duration

	collector *collector.Client
	// deltas refreshes the RA's ads with UPDATE_DELTA envelopes: an
	// unchanged heartbeat ships an empty delta instead of the full ad.
	deltas   *collector.DeltaAdvertiser
	lifetime int64
	dialer   *netx.Dialer

	mu       sync.Mutex
	srv      *netx.Server
	contact  string
	wg       sync.WaitGroup // running starters
	logf     func(string, ...any)
	onEvict  func(claim agent.Claim)
	preempts int
	// starterCancel stops the starter of the active claim, when the
	// claimed job executes via remote syscalls.
	starterCancel chan struct{}

	// Observability hooks; nil (no-op) until Instrument is called.
	obs           *obs.Obs
	events        *obs.Spans
	spans         *obs.Spans
	mClaimsRx     *obs.Counter
	mClaimsAccept *obs.Counter
	mClaimsRefuse *obs.Counter
	mPreemptions  *obs.Counter
	mReleases     *obs.Counter
	gHandlersRA   *obs.Gauge
}

// NewResourceDaemon builds a daemon around an RA that advertises to
// collectorAddr with the given ad lifetime (0 for the default).
func NewResourceDaemon(ra *agent.Resource, collectorAddr string, lifetime int64, logf func(string, ...any)) *ResourceDaemon {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := &collector.Client{Addr: collectorAddr}
	return &ResourceDaemon{
		RA:        ra,
		collector: client,
		deltas:    collector.NewDeltaAdvertiser(client),
		lifetime:  lifetime,
		dialer:    netx.DefaultDialer,
		logf:      logf,
	}
}

// Instrument routes claiming-protocol activity into o: claims
// received and their verdicts (pool_ra_claims_total,
// pool_ra_claims_accepted_total, pool_ra_claims_rejected_total),
// preemptions and evictions of the active claim
// (pool_ra_preemptions_total), releases served
// (pool_ra_releases_total), and live claim handlers (pool_ra_handlers
// gauge). Claim log entries carry the job's trace from the CLAIM
// envelope. Call before Listen/Serve.
func (d *ResourceDaemon) Instrument(o *obs.Obs) {
	reg := o.Registry()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obs = o
	d.events = o.Events()
	d.spans = o.Spans()
	d.mClaimsRx = reg.Counter("pool_ra_claims_total")
	d.mClaimsAccept = reg.Counter("pool_ra_claims_accepted_total")
	d.mClaimsRefuse = reg.Counter("pool_ra_claims_rejected_total")
	d.mPreemptions = reg.Counter("pool_ra_preemptions_total")
	d.mReleases = reg.Counter("pool_ra_releases_total")
	d.gHandlersRA = reg.Gauge("pool_ra_handlers")
}

// emit logs one RA entry under the given trace.
func (d *ResourceDaemon) emit(trace, name string, fields map[string]string) {
	d.mu.Lock()
	ev := d.events
	d.mu.Unlock()
	ev.Emit(trace, "ra", name, fields)
}

// ConfigureNetwork sets the dialer and retry policy used for all of
// the daemon's outbound traffic (collector heartbeats and CA
// notifications). Call before Listen/Serve.
func (d *ResourceDaemon) ConfigureNetwork(dialer *netx.Dialer, retry netx.RetryPolicy) {
	if dialer == nil {
		dialer = netx.DefaultDialer
	}
	d.dialer = dialer
	d.collector.Dialer = dialer
	d.collector.Retry = retry
}

// OnEvict registers a callback invoked when a claim is preempted by a
// better one; the daemon also notifies the displaced job's CA.
func (d *ResourceDaemon) OnEvict(fn func(agent.Claim)) { d.onEvict = fn }

// Listen binds the claiming endpoint and returns the contact address
// that will appear in advertisements.
func (d *ResourceDaemon) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return d.Serve(ln), nil
}

// Serve starts the claiming endpoint on an existing listener (which
// chaos tests wrap in a netx.FaultListener) and returns the contact
// address.
func (d *ResourceDaemon) Serve(ln net.Listener) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.srv = netx.Serve(ln, netx.ServerConfig{
		Name:        "ra " + d.RA.Name(),
		Logf:        d.logf,
		IdleTimeout: d.IdleTimeout,
		Handlers:    d.gHandlersRA,
	}, d.newHandler)
	d.contact = d.srv.Addr()
	return d.contact
}

// Contact returns the daemon's claiming address.
func (d *ResourceDaemon) Contact() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.contact
}

// Close stops the daemon, cancelling any running starter and closing
// the connections its handlers serve.
func (d *ResourceDaemon) Close() {
	d.mu.Lock()
	srv := d.srv
	d.mu.Unlock()
	srv.Close()
	d.stopStarter()
	d.wg.Wait()
}

// Advertise composes the RA's current ad — adding the Contact address
// — and sends it to the collector (Figure 3 step 1).
func (d *ResourceDaemon) Advertise() error {
	ad, err := d.RA.Advertise()
	if err != nil {
		return err
	}
	ad.SetString(classad.AttrContact, d.Contact())
	if err := d.deltas.Advertise(ad, d.lifetime); err != nil {
		return err
	}
	d.mu.Lock()
	o := d.obs
	d.mu.Unlock()
	if o != nil {
		if err := d.deltas.Advertise(DaemonAd("ra", d.RA.Name(), o), daemonAdLifetime); err != nil {
			d.logf("ra %s: advertising daemon ad: %v", d.RA.Name(), err)
		}
	}
	return nil
}

// Invalidate withdraws the RA's ad from the collector.
func (d *ResourceDaemon) Invalidate() error {
	d.deltas.Forget(d.RA.Name())
	return d.collector.Invalidate(d.RA.Name())
}

// newHandler serves one connection to the claiming endpoint. A claim
// accepted on it whose reply cannot be written is withdrawn; the hook
// that does so is built once per connection, not once per claim.
func (d *ResourceDaemon) newHandler(c *netx.Conn) netx.Handler {
	var granted *classad.Ad
	withdraw := func() { d.withdrawClaim(granted) }
	return func(env *protocol.Envelope) (*protocol.Envelope, func()) {
		reply, job := d.dispatch(c, env)
		if job == nil {
			return reply, nil
		}
		granted = job
		return reply, withdraw
	}
}

// dispatch answers one envelope on the claiming endpoint, and returns
// the job when the envelope was a CLAIM it accepted.
func (d *ResourceDaemon) dispatch(c *netx.Conn, env *protocol.Envelope) (*protocol.Envelope, *classad.Ad) {
	switch env.Type {
	case protocol.TypeMatch: //epochguard:ok advisory notification; the claim protocol re-fences via the ticket
		// Step 3: the provider learns who it was matched to.
		// Advisory — the claim carries everything needed.
		return &protocol.Envelope{Type: protocol.TypeAck}, nil
	case protocol.TypeClaim:
		return d.handleClaim(c, env)
	case protocol.TypeRelease:
		return d.handleRelease(env), nil
	default:
		return protocol.Errorf("resource daemon does not handle %s", env.Type), nil
	}
}

// handleRelease ends the active claim. RELEASE is idempotent: when
// the reply to a successful release is lost in transit, the CA
// retries, and the duplicate finds the resource already unclaimed —
// that is success, not an error (DESIGN.md, "Failure semantics").
func (d *ResourceDaemon) handleRelease(env *protocol.Envelope) *protocol.Envelope {
	if err := d.RA.Release(env.Name); err != nil {
		if _, held := d.RA.CurrentClaim(); !held {
			d.stopStarter()
			d.mReleases.Inc()
			d.emit(env.Trace, "release", map[string]string{
				"customer": env.Name, "duplicate": "true",
			})
			return &protocol.Envelope{Type: protocol.TypeAck, Reason: "already released"}
		}
		return protocol.Errorf("%v", err)
	}
	d.stopStarter()
	d.mReleases.Inc()
	d.emit(env.Trace, "release", map[string]string{"customer": env.Name})
	return &protocol.Envelope{Type: protocol.TypeAck}
}

// handleClaim runs the RA side of the claiming protocol (Figure 3
// step 4): optional challenge handshake, then ticket verification and
// constraint re-validation via the agent. It also returns the job ad
// when the claim was accepted (nil otherwise).
func (d *ResourceDaemon) handleClaim(c *netx.Conn, env *protocol.Envelope) (*protocol.Envelope, *classad.Ad) {
	job, err := protocol.DecodeAd(env.Ad)
	if err != nil {
		return protocol.Errorf("bad claim ad: %v", err), nil
	}
	if d.RequireChallenge {
		nonce, err := protocol.NewNonce()
		if err != nil {
			return protocol.Errorf("nonce: %v", err), nil
		}
		if err := protocol.Write(c, &protocol.Envelope{
			Type: protocol.TypeChallenge, Nonce: nonce,
		}); err != nil {
			return protocol.Errorf("challenge write: %v", err), nil
		}
		resp, err := protocol.Read(c.Reader())
		if err != nil {
			return protocol.Errorf("challenge read: %v", err), nil
		}
		if resp.Type != protocol.TypeChalReply ||
			!protocol.VerifyResponse(env.Ticket, nonce, resp.MAC) {
			return &protocol.Envelope{Type: protocol.TypeClaimReply,
				Accepted: false, Reason: "challenge failed"}, nil
		}
	}
	d.mClaimsRx.Inc()
	// The verdict is the last hop of the submission trace: parented to
	// the CA's claim span via the CLAIM envelope's Trace/Span fields.
	d.mu.Lock()
	spans := d.spans
	d.mu.Unlock()
	sp := spans.Start(env.Trace, env.Span, "ra", "verdict")
	sp.Set("job", adName(job))
	sp.Set("machine", d.RA.Name())
	out := d.RA.RequestClaim(job, env.Ticket)
	if out.Accepted {
		sp.Set("outcome", "accepted")
	} else {
		sp.Fail(out.Reason)
	}
	sp.End()
	if out.Accepted {
		d.mClaimsAccept.Inc()
		d.emit(env.Trace, "claim_accepted", map[string]string{
			"job": adName(job),
		})
		if out.Preempted != nil {
			d.stopStarter()
			d.notifyPreempted(*out.Preempted)
		}
		d.maybeStartJob(job)
	} else {
		d.mClaimsRefuse.Inc()
		d.emit(env.Trace, "claim_rejected", map[string]string{
			"job": adName(job), "reason": out.Reason,
		})
	}
	reply := &protocol.Envelope{
		Type:     protocol.TypeClaimReply,
		Accepted: out.Accepted,
		Reason:   out.Reason,
	}
	if !out.Accepted {
		return reply, nil
	}
	return reply, job
}

// withdrawClaim ends the claim just granted to job because its
// acceptance could not be written back. The CA sees its claim fail and
// requeues the job without recording a claim, so it would never send
// the RELEASE that ends this one: left standing, it would refuse every
// later claim of the same customer at the same rank for ever. A claim
// that has replaced it since stands.
func (d *ResourceDaemon) withdrawClaim(job *classad.Ad) {
	if !d.RA.Withdraw(job) {
		return
	}
	d.stopStarter()
	d.emit(classad.TraceOf(job), "claim_withdrawn", map[string]string{"job": adName(job)})
}

// stopStarter cancels the running starter, if any.
func (d *ResourceDaemon) stopStarter() {
	d.mu.Lock()
	cancel := d.starterCancel
	d.starterCancel = nil
	d.mu.Unlock()
	if cancel != nil {
		close(cancel)
	}
}

// EvictClaim forcibly ends the active claim (the daemon-level owner
// eviction): the starter is cancelled, the RA reclaims the machine,
// and the displaced job's CA gets a PREEMPT notice so the job
// requeues.
func (d *ResourceDaemon) EvictClaim() bool {
	d.stopStarter()
	old, ok := d.RA.Evict()
	if !ok {
		return false
	}
	d.notifyPreempted(old)
	return true
}

// maybeStartJob launches a starter for a claimed job that asked for
// remote-syscall execution (Figure 2's WantRemoteSyscalls): the job's
// ad names its shadow (ShadowContact), its remote input and output
// files (In/Out), and the starter runs on this machine, holding no job
// state locally. Jobs without the attributes simply hold the claim
// until the CA releases it, as before.
func (d *ResourceDaemon) maybeStartJob(job *classad.Ad) {
	if !job.Eval("WantRemoteSyscalls").IsTrue() &&
		!job.Eval("WantRemoteSyscalls").Identical(classad.Int(1)) {
		return
	}
	shadowAddr, ok := job.Eval("ShadowContact").StringVal()
	if !ok || shadowAddr == "" {
		return
	}
	input, okIn := job.Eval("In").StringVal()
	output, okOut := job.Eval("Out").StringVal()
	if !okIn || !okOut {
		return
	}
	owner, _ := job.Eval(classad.AttrOwner).StringVal()
	id, _ := agent.JobIDOf(job)
	spec := remote.JobSpec{
		Key:    jobName(owner, id),
		Input:  input,
		Output: output,
	}
	cancel := make(chan struct{})
	d.mu.Lock()
	d.starterCancel = cancel
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		res, err := remote.Run(shadowAddr, spec, cancel)
		if err != nil {
			d.logf("ra %s: starter: %v", d.RA.Name(), err)
			return
		}
		if !res.Done {
			return // evicted; the eviction path notified the CA
		}
		d.mu.Lock()
		if d.starterCancel == cancel {
			d.starterCancel = nil
		}
		d.mu.Unlock()
		// The job finished: release the claim locally and tell the
		// CA, which settles its queue bookkeeping.
		if err := d.RA.Release(owner); err != nil {
			d.logf("ra %s: release after completion: %v", d.RA.Name(), err)
		}
		if _, err := sendToContact(d.dialer, job, &protocol.Envelope{
			Type:  protocol.TypeJobDone,
			Ad:    protocol.EncodeAd(job),
			Name:  d.RA.Name(),
			Trace: classad.TraceOf(job),
		}); err != nil {
			d.logf("ra %s: job-done notify: %v", d.RA.Name(), err)
		}
	}()
}

// notifyPreempted tells the displaced job's CA that its claim is gone,
// via the Contact in the job's own ad.
func (d *ResourceDaemon) notifyPreempted(claim agent.Claim) {
	d.mu.Lock()
	d.preempts++
	d.mu.Unlock()
	d.mPreemptions.Inc()
	d.emit(classad.TraceOf(claim.Job), "preempt_sent", map[string]string{
		"customer": claim.Customer, "job": adName(claim.Job),
	})
	if d.onEvict != nil {
		d.onEvict(claim)
	}
	_, err := sendToContact(d.dialer, claim.Job, &protocol.Envelope{
		Type:  protocol.TypePreempt,
		Ad:    protocol.EncodeAd(claim.Job),
		Name:  d.RA.Name(),
		Trace: classad.TraceOf(claim.Job),
	})
	if err != nil {
		d.logf("ra %s: preempt notify: %v", d.RA.Name(), err)
	}
}
