package pool

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/matchmaker"
	"repro/internal/protocol"
)

// testPool spins up a manager, one RA daemon and one CA daemon on
// loopback TCP, all torn down with the test.
type testPool struct {
	mgr  *Manager
	addr string
	ra   *ResourceDaemon
	ca   *CustomerDaemon
}

func newTestPool(t *testing.T, raAd *classad.Ad, owner string) *testPool {
	t.Helper()
	mgr := NewManager(ManagerConfig{Logf: t.Logf})
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)

	ra := NewResourceDaemon(agent.NewResource(raAd, nil), addr, 0, t.Logf)
	if _, err := ra.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ra.Close)

	ca := NewCustomerDaemon(agent.NewCustomer(owner, nil), addr, 0, t.Logf)
	if _, err := ca.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)

	return &testPool{mgr: mgr, addr: addr, ra: ra, ca: ca}
}

// figure1Machine is the paper's workstation with the friendliest
// dynamic state (idle keyboard, low load, night), so matches hinge on
// the tested condition, not the example policy.
func figure1Machine() *classad.Ad {
	ad := classad.Figure1()
	ad.SetInt("DayTime", 22*3600)
	ad.SetInt("KeyboardIdle", 3600)
	ad.SetReal("LoadAvg", 0.01)
	return ad
}

// TestFigure3EndToEnd is experiment E3: advertise, match, notify and
// claim over real sockets — every arrow of the paper's Figure 3.
func TestFigure3EndToEnd(t *testing.T) {
	p := newTestPool(t, figure1Machine(), "raman")
	job := p.ca.CA.Submit(classad.Figure2(), 100)

	// Step 1: both entities advertise.
	if err := p.ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := p.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	if got := p.mgr.Store().Len(); got != 2 {
		t.Fatalf("store has %d ads, want 2", got)
	}

	// Steps 2 and 3: the negotiation cycle matches and notifies.
	res := p.mgr.RunCycle()
	if len(res.Matches) != 1 {
		t.Fatalf("cycle matched %d pairs, want 1", len(res.Matches))
	}
	if res.Notified != 1 {
		t.Fatalf("notified %d, errors: %v", res.Notified, res.Errors)
	}

	// Step 4 happened synchronously inside the notification: the CA
	// claimed the RA.
	if p.ra.RA.State() != agent.StateClaimed {
		t.Errorf("RA state = %s, want Claimed", p.ra.RA.State())
	}
	claim, ok := p.ra.RA.CurrentClaim()
	if !ok || claim.Customer != "raman" {
		t.Errorf("claim = %+v", claim)
	}
	j, _ := p.ca.CA.Job(job.ID)
	if j.Status != agent.JobRunning {
		t.Errorf("job status = %s, want Running", j.Status)
	}
	if j.Resource != "leonardo.cs.wisc.edu" {
		t.Errorf("job resource = %q", j.Resource)
	}
	okClaims, rejected := p.ca.ClaimStats()
	if okClaims != 1 || rejected != 0 {
		t.Errorf("claim stats = %d ok / %d rejected", okClaims, rejected)
	}

	// Completion releases the claim and the RA returns to Unclaimed.
	if err := p.ca.Complete(job.ID); err != nil {
		t.Fatal(err)
	}
	if p.ra.RA.State() != agent.StateUnclaimed {
		t.Errorf("RA state after release = %s", p.ra.RA.State())
	}
	j, _ = p.ca.CA.Job(job.ID)
	if j.Status != agent.JobCompleted {
		t.Errorf("job status after completion = %s", j.Status)
	}
}

// TestMatchClaimsTheNamedJob: the CA claims the job the matchmaker
// paired with the machine, not the first idle job that would accept
// it. The engine serves requests in key order — raman/job10 before
// raman/job9 — and Rank sends both to machine b first, so job 10 gets b
// and job 9 gets a: the opposite of what submission order would pick.
func TestMatchClaimsTheNamedJob(t *testing.T) {
	mgr := NewManager(ManagerConfig{Logf: t.Logf})
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	for i, name := range []string{"a.example", "b.example"} {
		machine := figure1Machine()
		machine.SetString(classad.AttrName, name)
		machine.SetInt("Speed", int64(i+1))
		ra := NewResourceDaemon(agent.NewResource(machine, nil), addr, 0, t.Logf)
		if _, err := ra.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ra.Close)
		if err := ra.Advertise(); err != nil {
			t.Fatal(err)
		}
	}
	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), addr, 0, t.Logf)
	if _, err := ca.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)

	job := classad.Figure2()
	job.Set(classad.AttrRank, classad.MustParseExpr(`other.Speed`))
	for i := 1; i <= 10; i++ {
		j := ca.CA.Submit(job, 100)
		if i <= 8 {
			if err := ca.CA.Remove(j.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	res := mgr.RunCycle()
	if len(res.Matches) != 2 || res.Charged != 2 {
		t.Fatalf("cycle = %+v, want both jobs matched and claimed", res)
	}
	for _, m := range res.Matches {
		name := adName(m.Request)
		id, ok := jobIDOfName("raman", name)
		if !ok {
			t.Fatalf("request name %q", name)
		}
		if j, _ := ca.CA.Job(id); j.Status != agent.JobRunning || j.Resource != adName(m.Offer) {
			t.Errorf("%s was matched to %s but is %s on %q", name, adName(m.Offer), j.Status, j.Resource)
		}
	}
	if j, _ := ca.CA.Job(10); j.Resource != "b.example" {
		t.Errorf("job 10 runs on %q, want b.example (its Rank's choice, served first)", j.Resource)
	}
}

// TestRedeliveredMatchClaimsOnce: a MATCH delivered twice — its reply
// was lost and the negotiator retried or replayed it — runs one claim,
// even when that claim failed and the job is idle again. A MATCH with a
// new session, or for a job no longer idle, is judged afresh.
func TestRedeliveredMatchClaimsOnce(t *testing.T) {
	p := newTestPool(t, figure1Machine(), "raman")
	job := p.ca.CA.Submit(classad.Figure2(), 100)
	offer, err := p.ra.RA.Advertise()
	if err != nil {
		t.Fatal(err)
	}
	offer.SetString(classad.AttrContact, p.ra.Contact())
	target := classad.NewAd()
	target.SetString(classad.AttrContact, p.ca.Contact())
	match := func(session, ticket string) *protocol.Envelope {
		t.Helper()
		reply, err := sendToContact(nil, target, &protocol.Envelope{
			Type: protocol.TypeMatch, Name: JobName("raman", job.ID),
			PeerAd: protocol.EncodeAd(offer), Ticket: ticket, Session: session,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	claims := func() int {
		ok, rejected := p.ca.ClaimStats()
		return ok + rejected
	}
	match("s1", "wrong-ticket") // rejected: the job stays idle
	if reply := match("s1", "wrong-ticket"); reply.Accepted || claims() != 1 {
		t.Fatalf("redelivered MATCH: reply %+v, %d claims, want 1", reply, claims())
	}
	ticket, _ := offer.Eval(classad.AttrTicket).StringVal()
	if reply := match("s2", ticket); !reply.Accepted || claims() != 2 {
		t.Fatalf("MATCH of a new session: reply %+v, %d claims, want 2", reply, claims())
	}
	if reply := match("s3", ticket); reply.Accepted || claims() != 2 {
		t.Fatalf("MATCH for a running job: reply %+v, %d claims, want 2", reply, claims())
	}
}

// TestFigure3WithChallenge runs the same flow with the HMAC
// challenge-response handshake enabled on the RA.
func TestFigure3WithChallenge(t *testing.T) {
	p := newTestPool(t, figure1Machine(), "raman")
	p.ra.RequireChallenge = true
	p.ca.CA.Submit(classad.Figure2(), 100)
	if err := p.ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := p.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	res := p.mgr.RunCycle()
	if res.Notified != 1 {
		t.Fatalf("notified %d, errors: %v", res.Notified, res.Errors)
	}
	if p.ra.RA.State() != agent.StateClaimed {
		t.Errorf("RA state = %s; challenge handshake should still succeed", p.ra.RA.State())
	}
}

// TestStaleClaimRejected is experiment E5 over sockets: the machine's
// state changes between advertisement and claim; the claim is caught
// at claim time and the job stays idle for the next cycle.
func TestStaleClaimRejected(t *testing.T) {
	p := newTestPool(t, figure1Machine(), "tannenba") // a friend
	job := p.ca.CA.Submit(classad.Figure2(), 100)
	if err := p.ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := p.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	// Owner touches the keyboard after the ad went out: friends are
	// no longer welcome.
	p.ra.RA.SetDynamic("KeyboardIdle", classad.Int(2))

	res := p.mgr.RunCycle()
	if len(res.Matches) != 1 {
		t.Fatalf("stale ad should still match in the negotiator; got %d", len(res.Matches))
	}
	if p.ra.RA.State() != agent.StateUnclaimed {
		t.Errorf("RA state = %s, want Unclaimed (claim must be rejected)", p.ra.RA.State())
	}
	j, _ := p.ca.CA.Job(job.ID)
	if j.Status != agent.JobIdle {
		t.Errorf("job status = %s, want Idle for resubmission", j.Status)
	}
	_, rejected := p.ca.ClaimStats()
	if rejected != 1 {
		t.Errorf("rejected claims = %d, want 1", rejected)
	}

	// Progress is still possible: the owner leaves, agents
	// re-advertise, the next cycle succeeds.
	p.ra.RA.SetDynamic("KeyboardIdle", classad.Int(3600))
	if err := p.ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := p.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	res = p.mgr.RunCycle()
	if res.Notified != 1 {
		t.Fatalf("second cycle notified %d, errors: %v", res.Notified, res.Errors)
	}
	if p.ra.RA.State() != agent.StateClaimed {
		t.Errorf("RA state after recovery cycle = %s", p.ra.RA.State())
	}
}

// TestClaimWithdrawnWhenReplyLost: an RA that accepts a claim but
// cannot write the CLAIM_REPLY withdraws the claim — the CA saw its
// claim fail, holds no record of it and would never release it, so
// the RA would refuse that customer at equal rank for ever. A claim
// whose reply goes out stands. The RA serves a pipe listener, whose
// writes block until the peer reads, so closing the peer first makes
// the reply write fail for certain.
func TestClaimWithdrawnWhenReplyLost(t *testing.T) {
	for _, lost := range []bool{false, true} {
		ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), "127.0.0.1:1", 0, t.Logf)
		ad, err := ra.RA.Advertise()
		if err != nil {
			t.Fatal(err)
		}
		ticket, _ := ad.Eval(classad.AttrTicket).StringVal()
		ln := newPipeListener()
		ra.Serve(ln)
		server, client := net.Pipe()
		ln.conns <- server
		if err := protocol.Write(client, &protocol.Envelope{
			Type: protocol.TypeClaim, Ad: protocol.EncodeAd(classad.Figure2()), Ticket: ticket,
		}); err != nil {
			t.Fatal(err)
		}
		if !lost {
			reply, err := protocol.Read(bufio.NewReader(client))
			if err != nil || !reply.Accepted {
				t.Fatalf("claim reply = %+v, %v; want accepted", reply, err)
			}
		}
		client.Close() // before the reply is read, when lost
		ra.Close()     // waits for the handler
		if _, held := ra.RA.CurrentClaim(); held == lost {
			t.Errorf("reply lost %v: claim held = %v", lost, held)
		}
	}
}

// pipeListener hands the server the ends of in-memory pipes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestMatchmakerCrashRecovery is experiment E6: killing the pool
// manager loses nothing durable — a fresh manager on a fresh store is
// fully operational as soon as the agents re-advertise, because
// matches are introductions and all allocation state lives in the
// agents (paper §3.2, "the matchmaker is a stateless service").
func TestMatchmakerCrashRecovery(t *testing.T) {
	p := newTestPool(t, figure1Machine(), "raman")
	job := p.ca.CA.Submit(classad.Figure2(), 100)
	if err := p.ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := p.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}

	// The manager "crashes" before ever running a cycle.
	p.mgr.Close()

	// A replacement comes up at a new address with an empty store.
	mgr2 := NewManager(ManagerConfig{Logf: t.Logf})
	addr2, err := mgr2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr2.Close)

	// Agents re-target their periodic advertisements (in deployment
	// the address is fixed and the TCP connection simply succeeds
	// again; re-pointing the client models the same recovery).
	ra2 := NewResourceDaemon(p.ra.RA, addr2, 0, t.Logf)
	ra2.mu.Lock()
	ra2.contact = p.ra.Contact() // same claiming endpoint
	ra2.mu.Unlock()
	ca2 := NewCustomerDaemon(p.ca.CA, addr2, 0, t.Logf)
	ca2.mu.Lock()
	ca2.contact = p.ca.Contact()
	ca2.mu.Unlock()
	// Route claims through the original CA daemon's listener: the
	// MATCH notification goes to the original contact address, which
	// is still served by p.ca. Re-advertise through the new clients.
	if err := ra2.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := ca2.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	res := mgr2.RunCycle()
	if res.Notified != 1 {
		t.Fatalf("recovered manager notified %d, errors: %v", res.Notified, res.Errors)
	}
	if p.ra.RA.State() != agent.StateClaimed {
		t.Errorf("RA state = %s after recovery", p.ra.RA.State())
	}
	j, _ := p.ca.CA.Job(job.ID)
	if j.Status != agent.JobRunning {
		t.Errorf("job status = %s after recovery", j.Status)
	}
}

// TestPreemptionOverSockets: a higher-ranked customer's claim evicts
// the incumbent, whose CA receives a PREEMPT notice and requeues the
// job.
func TestPreemptionOverSockets(t *testing.T) {
	requireTracedLifecycle(t)
	mgr := NewManager(ManagerConfig{Logf: t.Logf})
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)

	ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), addr, 0, t.Logf)
	if _, err := ra.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ra.Close)

	friend := NewCustomerDaemon(agent.NewCustomer("tannenba", nil), addr, 0, t.Logf)
	if _, err := friend.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(friend.Close)
	research := NewCustomerDaemon(agent.NewCustomer("raman", nil), addr, 0, t.Logf)
	if _, err := research.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(research.Close)

	// Cycle 1: only the friend's job is queued; it claims the
	// machine at rank 1.
	friendJob := friend.CA.Submit(classad.Figure2(), 1000)
	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := friend.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	if res := mgr.RunCycle(); res.Notified != 1 {
		t.Fatalf("cycle 1: %+v", res)
	}
	if st := ra.RA.State(); st != agent.StateClaimed {
		t.Fatalf("cycle 1 left RA %s", st)
	}

	// Cycle 2: the machine re-advertises (State=Claimed,
	// CurrentRank=1) and a research job arrives. The machine's
	// constraint still accepts research members, the RA ranks the
	// job at 10 > 1, so the claim preempts.
	researchJob := research.CA.Submit(classad.Figure2(), 1000)
	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := research.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	if res := mgr.RunCycle(); res.Notified != 1 {
		t.Fatalf("cycle 2: %+v", res)
	}
	claim, _ := ra.RA.CurrentClaim()
	if claim.Customer != "raman" {
		t.Fatalf("claim holder = %s, want raman", claim.Customer)
	}
	preempted, _ := ra.RA.Stats()
	if preempted != 1 {
		t.Errorf("preemptions = %d", preempted)
	}

	// The friend's job got its PREEMPT notice and is idle again.
	deadline := time.Now().Add(2 * time.Second)
	for {
		j, _ := friend.CA.Job(friendJob.ID)
		if j.Status == agent.JobIdle {
			if j.Evictions != 1 {
				t.Errorf("evictions = %d", j.Evictions)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("friend job never returned to Idle (status %s)", j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := research.CA.Job(researchJob.ID)
	if j.Status != agent.JobRunning {
		t.Errorf("research job = %s", j.Status)
	}
}

// TestCycleWithNoAds: an empty store cycles cleanly.
func TestCycleWithNoAds(t *testing.T) {
	mgr := NewManager(ManagerConfig{})
	res := mgr.RunCycle()
	if res.Requests != 0 || res.Offers != 0 || len(res.Matches) != 0 {
		t.Errorf("empty cycle = %+v", res)
	}
	if mgr.Cycles() != 1 {
		t.Errorf("cycles = %d", mgr.Cycles())
	}
}

// TestUnreachableCustomerContact: a match whose customer cannot be
// notified is reported as an error, and the cycle carries on.
func TestUnreachableCustomerContact(t *testing.T) {
	mgr := NewManager(ManagerConfig{Logf: t.Logf})
	machine := figure1Machine()
	machine.SetString(classad.AttrContact, "127.0.0.1:1") // nothing listens
	machine.SetString(classad.AttrTicket, "deadbeef")
	if err := mgr.Store().Update(machine, 0); err != nil {
		t.Fatal(err)
	}
	job := classad.Figure2()
	job.SetString(classad.AttrName, "raman/job1")
	job.SetString(classad.AttrContact, "127.0.0.1:1")
	if err := mgr.Store().Update(job, 0); err != nil {
		t.Fatal(err)
	}
	res := mgr.RunCycle()
	if len(res.Matches) != 1 || res.Notified != 0 || len(res.Errors) != 1 {
		t.Errorf("cycle = %+v", res)
	}
	if !strings.Contains(res.Errors[0].Error(), "notify customer") {
		t.Errorf("error = %v", res.Errors[0])
	}
}

// TestFairShareAcrossDaemons: the manager's fair-share config reaches
// the negotiation.
func TestFairShareAcrossDaemons(t *testing.T) {
	mgr := NewManager(ManagerConfig{
		Matchmaker: matchmaker.Config{FairShare: true},
	})
	if mgr.Cycles() != 0 {
		t.Fatal("fresh manager has cycles")
	}
	// Smoke only: detailed fairness is tested in the matchmaker
	// package; here we just confirm the wiring accepts the config.
	res := mgr.RunCycle()
	if res.Requests != 0 {
		t.Errorf("requests = %d", res.Requests)
	}
}
