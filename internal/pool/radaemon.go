package pool

import (
	"bufio"
	"fmt"
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

	// IdleTimeout bounds a handler's wait for the next envelope;
	// WriteTimeout bounds each reply write. Set before Listen/Serve.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration

	collector *collector.Client
	// deltas refreshes the RA's ads with UPDATE_DELTA envelopes: an
	// unchanged heartbeat ships an empty delta instead of the full ad.
	deltas   *collector.DeltaAdvertiser
	lifetime int64
	dialer   *netx.Dialer

	mu       sync.Mutex
	ln       net.Listener
	contact  string
	closed   bool
	wg       sync.WaitGroup
	logf     func(string, ...any)
	onEvict  func(claim agent.Claim)
	preempts int
	// starterCancel stops the starter of the active claim, when the
	// claimed job executes via remote syscalls.
	starterCancel chan struct{}

	// Observability hooks; nil (no-op) until Instrument is called.
	obs           *obs.Obs
	events        *obs.Events
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
		RA:           ra,
		IdleTimeout:  netx.DefaultIdleTimeout,
		WriteTimeout: netx.DefaultIOTimeout,
		collector:    client,
		deltas:       collector.NewDeltaAdvertiser(client),
		lifetime:     lifetime,
		dialer:       netx.DefaultDialer,
		logf:         logf,
	}
}

// Instrument routes claiming-protocol activity into o: claims
// received and their verdicts (pool_ra_claims_total,
// pool_ra_claims_accepted_total, pool_ra_claims_rejected_total),
// preemptions and evictions of the active claim
// (pool_ra_preemptions_total), releases served
// (pool_ra_releases_total), and live claim handlers (pool_ra_handlers
// gauge). Claim events carry the cycle ID the CA echoed from its
// MATCH notification. Call before Listen/Serve.
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

// emit logs one RA event stamped with the given cycle ID.
func (d *ResourceDaemon) emit(typ, cycle string, fields map[string]string) {
	d.mu.Lock()
	ev := d.events
	d.mu.Unlock()
	ev.Emit("ra", typ, cycle, fields)
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
	d.ln = ln
	d.contact = ln.Addr().String()
	d.mu.Unlock()
	d.wg.Add(1)
	go d.acceptLoop(ln)
	return d.contact
}

// Contact returns the daemon's claiming address.
func (d *ResourceDaemon) Contact() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.contact
}

// Close stops the daemon, cancelling any running starter.
func (d *ResourceDaemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	ln := d.ln
	d.mu.Unlock()
	d.stopStarter()
	if ln != nil {
		ln.Close()
	}
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

func (d *ResourceDaemon) acceptLoop(ln net.Listener) {
	defer d.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.handle(conn)
		}()
	}
}

func (d *ResourceDaemon) handle(conn net.Conn) {
	defer conn.Close()
	d.mu.Lock()
	gHandlers := d.gHandlersRA
	d.mu.Unlock()
	gHandlers.Inc()
	defer gHandlers.Dec()
	bounded := netx.TimeoutConn(conn, d.IdleTimeout, d.WriteTimeout)
	r := bufio.NewReader(bounded)
	for {
		env, err := protocol.Read(r)
		if err != nil {
			if !quietReadError(err) {
				d.logf("ra %s: read: %v", d.RA.Name(), err)
			}
			return
		}
		var reply *protocol.Envelope
		var granted *classad.Ad // the job a CLAIM was just accepted for
		switch env.Type {
		case protocol.TypeMatch: //epochguard:ok advisory notification; the claim protocol re-fences via the ticket
			// Step 3: the provider learns who it was matched to.
			// Advisory — the claim carries everything needed.
			reply = &protocol.Envelope{Type: protocol.TypeAck}
		case protocol.TypeClaim:
			reply, granted = d.handleClaim(bounded, r, env)
		case protocol.TypeRelease:
			reply = d.handleRelease(env)
		default:
			reply = protocol.Errorf("resource daemon does not handle %s", env.Type)
		}
		if err := protocol.Write(bounded, reply); err != nil {
			d.logf("ra %s: write: %v", d.RA.Name(), err)
			if granted != nil {
				d.withdrawClaim(granted, env.Cycle)
			}
			return
		}
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
			d.emit("release", env.Cycle, map[string]string{
				"customer": env.Name, "duplicate": "true",
			})
			return &protocol.Envelope{Type: protocol.TypeAck, Reason: "already released"}
		}
		return protocol.Errorf("%v", err)
	}
	d.stopStarter()
	d.mReleases.Inc()
	d.emit("release", env.Cycle, map[string]string{"customer": env.Name})
	return &protocol.Envelope{Type: protocol.TypeAck}
}

// handleClaim runs the RA side of the claiming protocol (Figure 3
// step 4): optional challenge handshake, then ticket verification and
// constraint re-validation via the agent. It also returns the job ad
// when the claim was accepted (nil otherwise).
func (d *ResourceDaemon) handleClaim(conn net.Conn, r *bufio.Reader, env *protocol.Envelope) (*protocol.Envelope, *classad.Ad) {
	job, err := protocol.DecodeAd(env.Ad)
	if err != nil {
		return protocol.Errorf("bad claim ad: %v", err), nil
	}
	if d.RequireChallenge {
		nonce, err := protocol.NewNonce()
		if err != nil {
			return protocol.Errorf("nonce: %v", err), nil
		}
		if err := protocol.Write(conn, &protocol.Envelope{
			Type: protocol.TypeChallenge, Nonce: nonce,
		}); err != nil {
			return protocol.Errorf("challenge write: %v", err), nil
		}
		resp, err := protocol.Read(r)
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
		d.emit("claim_accepted", env.Cycle, map[string]string{
			"job": adName(job),
		})
		if out.Preempted != nil {
			d.stopStarter()
			d.notifyPreempted(*out.Preempted)
		}
		d.maybeStartJob(job)
	} else {
		d.mClaimsRefuse.Inc()
		d.emit("claim_rejected", env.Cycle, map[string]string{
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
func (d *ResourceDaemon) withdrawClaim(job *classad.Ad, cycle string) {
	if !d.RA.Withdraw(job) {
		return
	}
	d.stopStarter()
	d.emit("claim_withdrawn", cycle, map[string]string{"job": adName(job)})
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
		Key:    fmt.Sprintf("%s/job%d", owner, id),
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
	d.emit("preempt_sent", "", map[string]string{
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
