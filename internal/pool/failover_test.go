package pool

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// poolClock returns a classad environment whose time is an atomic
// counter the test advances by hand, so lease expiry is deterministic.
func poolClock(start int64) (*classad.Env, *atomic.Int64) {
	clock := &atomic.Int64{}
	clock.Store(start)
	return &classad.Env{
		Now:  clock.Load,
		Rand: func() float64 { return 0.5 },
	}, clock
}

// haHarness is a pool with a standalone durable collector and two
// standalone negotiators competing for its leadership lease.
type haHarness struct {
	addr   string
	server *collector.Server
	cstore *collector.Store
	clock  *atomic.Int64
	ra     *ResourceDaemon
	ca     *CustomerDaemon
	caObs  *obs.Obs
	negA   *NegotiatorDaemon
	negB   *NegotiatorDaemon
	bObs   *obs.Obs
}

func newHAHarness(t *testing.T) *haHarness {
	t.Helper()
	requireTracedLifecycle(t)
	dir := t.TempDir()
	env, clock := poolClock(1_000_000)

	cstore, err := collector.OpenDurable(filepath.Join(dir, "collector"), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := collector.NewServer(cstore, t.Logf)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	t.Cleanup(func() { cstore.Close() })

	ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), addr, 0, t.Logf)
	if _, err := ra.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ra.Close)

	caObs := obs.New()
	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), addr, 0, t.Logf)
	ca.Instrument(caObs)
	if err := ca.EnableJournal(filepath.Join(dir, "ca"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)

	negA := NewNegotiatorDaemon("nego-a", &collector.Client{Addr: addr}, matchmaker.Config{Env: env})
	negA.Logf = t.Logf

	bObs := obs.New()
	negB := NewNegotiatorDaemon("nego-b", &collector.Client{Addr: addr}, matchmaker.Config{Env: env})
	negB.Logf = t.Logf
	negB.Instrument(bObs)

	return &haHarness{
		addr: addr, server: server, cstore: cstore, clock: clock,
		ra: ra, ca: ca, caObs: caObs,
		negA: negA, negB: negB, bObs: bObs,
	}
}

func (h *haHarness) advertise(t *testing.T) {
	t.Helper()
	if err := h.ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := h.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestNegotiatorFailover is the HA chaos run: two standalone
// negotiators share one collector; the leader dies between producing a
// match and the next renewal, the standby takes over within one lease
// period under a higher epoch, the dead leader's stale match is
// fenced, and the usage table ends identical to a run with no
// failure — zero lost claims, no double grants.
func TestNegotiatorFailover(t *testing.T) {
	h := newHAHarness(t)

	// Cycle 1: negotiator A wins the first election (epoch 1) and
	// matches job 1.
	job1 := h.ca.CA.Submit(classad.Figure2(), 100)
	h.advertise(t)
	res := h.negA.Tick(false)
	if res.Standby || res.Epoch != 1 {
		t.Fatalf("A's first tick = %+v, want leader at epoch 1", res)
	}
	if res.Notified != 1 {
		t.Fatalf("A notified %d, errors: %v", res.Notified, res.Errors)
	}
	if j, _ := h.ca.CA.Job(job1.ID); j.Status != agent.JobRunning {
		t.Fatalf("job 1 = %s after A's cycle", j.Status)
	}

	// B ticks while A leads: it must stand by, matching nothing and
	// copying nothing. A's charge is in the collector, in the
	// Negotiator ad A published at the end of its cycle.
	resB := h.negB.Tick(false)
	if !resB.Standby {
		t.Fatalf("B's tick with A alive = %+v, want standby", resB)
	}
	if leader, _ := h.negB.Leader(); leader {
		t.Fatal("B believes it leads while A holds the lease")
	}
	if got := h.negB.Usage().Effective("raman"); got != 0 {
		t.Fatalf("standby B's usage for raman = %g, want 0 (standbys keep no copy)", got)
	}
	if got, _ := publishedUsage(t, h.cstore, "negotiator/nego-a", "raman"); got != 1 {
		t.Fatalf("A's published usage for raman = %g, want 1 (A's one match)", got)
	}

	// Job 1 completes; job 2 arrives. Then A dies holding the lease
	// (it never ticks again), with the match work for job 2 undone —
	// the paper's soft-state argument (§4.3) says nothing but time is
	// lost.
	if err := h.ca.Complete(job1.ID); err != nil {
		t.Fatal(err)
	}
	job2 := h.ca.CA.Submit(classad.Figure2(), 100)
	h.advertise(t)

	// Within A's lease period B remains a standby: the collector
	// cannot yet distinguish a dead leader from a slow one.
	if res := h.negB.Tick(false); !res.Standby {
		t.Fatalf("B seized leadership inside A's lease: %+v", res)
	}

	// One lease period later B takes over under epoch 2 and matches
	// job 2 — the claim A never introduced is not lost.
	h.clock.Add(collector.DefaultLeaseTTL + 1)
	res = h.negB.Tick(false)
	if res.Standby || res.Epoch != 2 {
		t.Fatalf("B's takeover tick = %+v, want leader at epoch 2", res)
	}
	if res.Notified != 1 {
		t.Fatalf("B notified %d, errors: %v", res.Notified, res.Errors)
	}
	if j, _ := h.ca.CA.Job(job2.ID); j.Status != agent.JobRunning {
		t.Fatalf("job 2 = %s after failover", j.Status)
	}
	if snap := h.bObs.Registry().Snapshot(); snap.Counters["negotiator_failovers_total"] != 1 {
		t.Errorf("negotiator_failovers_total = %d, want 1", snap.Counters["negotiator_failovers_total"])
	}

	// A MATCH from the deposed leader (epoch 1) arrives late — say a
	// notification A had queued before dying. The CA fences it.
	machine := figure1Machine()
	machine.SetString(classad.AttrTicket, "stale")
	target := classad.NewAd()
	target.SetString(classad.AttrContact, h.ca.Contact())
	_, err := sendToContact(nil, target, &protocol.Envelope{
		Type:   protocol.TypeMatch,
		PeerAd: protocol.EncodeAd(machine),
		Ticket: "stale",
		Epoch:  1,
		Trace:  classad.TraceOf(job2.Ad),
	})
	if err == nil || !strings.Contains(err.Error(), "stale negotiator epoch") {
		t.Fatalf("stale MATCH error = %v, want epoch fence rejection", err)
	}
	if snap := h.caObs.Registry().Snapshot(); snap.Counters["pool_fenced_matches_total"] != 1 {
		t.Errorf("pool_fenced_matches_total = %d, want 1", snap.Counters["pool_fenced_matches_total"])
	}
	if h.ca.HighestEpoch() != 2 {
		t.Errorf("CA high-water epoch = %d, want 2", h.ca.HighestEpoch())
	}

	// No double grants: the RA holds exactly one claim, from job 2's
	// single successful claim exchange.
	if st := h.ra.RA.State(); st != agent.StateClaimed {
		t.Errorf("RA state = %s", st)
	}
	okClaims, rejected := h.ca.ClaimStats()
	if okClaims != 2 || rejected != 0 {
		t.Errorf("claim stats = %d ok / %d rejected, want 2/0", okClaims, rejected)
	}

	// Usage equality: a failure-free run of the same workload charges
	// raman exactly two units (one per match). B's table — one unit
	// loaded from A's Negotiator ad at takeover, one charged by B —
	// must agree, less the decay over one lease period.
	if got := h.negB.Usage().Effective("raman"); got < 1.99 || got > 2.01 {
		t.Errorf("post-failover usage for raman = %g, want ~2 (the no-failure total)", got)
	}
}

// TestFailoverKeepsChargesAfterStandbyTick: the leader charges twice,
// the standby ticks only between the two charges, and the leader dies.
// The standby that takes over still bills both, because what it loads
// is the leader's last published cycle, not a copy taken at its own
// last tick.
func TestFailoverKeepsChargesAfterStandbyTick(t *testing.T) {
	h := newHAHarness(t)

	job1 := h.ca.CA.Submit(classad.Figure2(), 100)
	h.advertise(t)
	if res := h.negA.Tick(false); res.Epoch != 1 || res.Charged != 1 {
		t.Fatalf("A's first tick = %+v, want one charge at epoch 1", res)
	}
	if res := h.negB.Tick(false); !res.Standby {
		t.Fatalf("B's tick with A alive = %+v, want standby", res)
	}

	// A's second charge lands after B's only tick.
	if err := h.ca.Complete(job1.ID); err != nil {
		t.Fatal(err)
	}
	h.ca.CA.Submit(classad.Figure2(), 100)
	h.advertise(t)
	if res := h.negA.Tick(false); res.Standby || res.Charged != 1 {
		t.Fatalf("A's second tick = %+v, want a second charge", res)
	}

	// A dies; one lease period later B takes over.
	h.clock.Add(collector.DefaultLeaseTTL + 1)
	if res := h.negB.Tick(false); res.Standby || res.Epoch != 2 {
		t.Fatalf("B's takeover tick = %+v, want leader at epoch 2", res)
	}
	if got := h.negB.Usage().Effective("raman"); got < 1.99 || got > 2.01 {
		t.Errorf("usage for raman after takeover = %g, want ~2 (both of A's charges)", got)
	}
}

// TestDeposedLeaderAdNeverWinsUsageLoad: a deposed leader that does not
// yet know it publishes its Negotiator ad after its successor's, newer
// by the clock and carrying a charge the successor never saw. The next
// leader loads the successor's table all the same, because the load
// orders Negotiator ads by Epoch first.
func TestDeposedLeaderAdNeverWinsUsageLoad(t *testing.T) {
	h := newHAHarness(t)

	// A leads under epoch 1 and bills raman once.
	job1 := h.ca.CA.Submit(classad.Figure2(), 100)
	h.advertise(t)
	if res := h.negA.Tick(false); res.Epoch != 1 || res.Charged != 1 {
		t.Fatalf("A's first tick = %+v, want one charge at epoch 1", res)
	}
	if err := h.ca.Complete(job1.ID); err != nil {
		t.Fatal(err)
	}
	h.ca.CA.Submit(classad.Figure2(), 100)
	h.advertise(t)

	// A goes silent; B takes over under epoch 2 and bills the second job.
	h.clock.Add(collector.DefaultLeaseTTL + 1)
	if res := h.negB.Tick(false); res.Epoch != 2 || res.Charged != 1 {
		t.Fatalf("B's takeover tick = %+v, want one charge at epoch 2", res)
	}

	// A, deposed without knowing it, publishes once more.
	h.clock.Add(1)
	h.negA.Usage().Advance(float64(h.clock.Load()))
	h.negA.Usage().Record("raman", 5)
	h.negA.negotiator.publishSelf("nego-a", CycleResult{})
	if got, _ := publishedUsage(t, h.cstore, "negotiator/nego-a", "raman"); got < 5.99 || got > 6.01 {
		t.Fatalf("A's late ad publishes %g for raman, want ~6", got)
	}

	// B goes silent too. A wins epoch 3 and must load B's epoch-2
	// table, not its own later epoch-1 ad.
	h.clock.Add(collector.DefaultLeaseTTL + 1)
	if res := h.negA.Tick(false); res.Standby || res.Epoch != 3 {
		t.Fatalf("A's tick after B's lease ran out = %+v, want leader at epoch 3", res)
	}
	if got := h.negA.Usage().Effective("raman"); got < 1.99 || got > 2.01 {
		t.Errorf("usage for raman at epoch 3 = %g, want ~2 (B's epoch-2 table)", got)
	}
}

// TestLeaseSurvivesCollectorRestart: the epoch fence must hold even
// when the collector itself restarts between two leaders' reigns —
// the lease state rides the collector's journal.
func TestLeaseSurvivesCollectorRestart(t *testing.T) {
	dir := t.TempDir()
	env, clock := poolClock(5_000)

	s1, err := collector.OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	lease, granted, err := s1.AcquireLease("nego-a", 0)
	if err != nil || !granted || lease.Epoch != 1 {
		t.Fatalf("first acquire = %+v %v %v", lease, granted, err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Collector restarts; A's lease (and epoch) must still stand.
	s2, err := collector.OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, granted, _ := s2.AcquireLease("nego-b", 0); granted {
		t.Fatal("B stole the lease across a collector restart")
	}
	clock.Add(collector.DefaultLeaseTTL + 1)
	lease, granted, err = s2.AcquireLease("nego-b", 0)
	if err != nil || !granted {
		t.Fatalf("post-expiry acquire: %+v %v %v", lease, granted, err)
	}
	if lease.Epoch != 2 {
		t.Errorf("epoch after restart and takeover = %d, want 2", lease.Epoch)
	}
}

// TestClaimJournalRestartGranted: a CA restart restores a granted
// claim — the job resumes Running with its claim reference intact, and
// completion still releases the provider.
func TestClaimJournalRestartGranted(t *testing.T) {
	requireTracedLifecycle(t)
	dir := t.TempDir()
	p := newTestPool(t, figure1Machine(), "raman")
	raObs := obs.New()
	p.ra.Instrument(raObs)
	if err := p.ca.EnableJournal(dir, nil); err != nil {
		t.Fatal(err)
	}
	job := p.ca.CA.Submit(classad.Figure2(), 100)
	if err := p.ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := p.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	if res := p.mgr.RunCycle(); res.Notified != 1 {
		t.Fatalf("cycle: %+v", res)
	}
	if p.ra.RA.State() != agent.StateClaimed {
		t.Fatal("machine not claimed")
	}

	// The CA process dies and comes back: a fresh daemon, a fresh
	// queue holding the same submission, the same journal directory.
	p.ca.Close()
	ca2 := NewCustomerDaemon(agent.NewCustomer("raman", nil), p.addr, 0, t.Logf)
	job2 := ca2.CA.Submit(classad.Figure2(), 100)
	if job2.ID != job.ID {
		t.Fatalf("restarted queue assigned job ID %d, want %d", job2.ID, job.ID)
	}
	if classad.TraceOf(job2.Ad) == classad.TraceOf(job.Ad) {
		t.Fatal("re-submitted job kept its trace; the journal would not be what supplies it")
	}
	if err := ca2.EnableJournal(dir, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca2.Close)

	j, _ := ca2.CA.Job(job2.ID)
	if j.Status != agent.JobRunning {
		t.Fatalf("reconciled job = %s, want Running", j.Status)
	}
	live := ca2.Journal().Live()
	if len(live) != 1 || live[0].Phase != PhaseGranted {
		t.Fatalf("journal after reconcile = %+v", live)
	}
	// The restored claim reference still reaches the provider.
	if err := ca2.Complete(job2.ID); err != nil {
		t.Fatal(err)
	}
	if p.ra.RA.State() != agent.StateUnclaimed {
		t.Errorf("RA state after restored release = %s", p.ra.RA.State())
	}
	requireReleaseTrace(t, raObs, classad.TraceOf(job.Ad))
	if live := ca2.Journal().Live(); len(live) != 0 {
		t.Errorf("journal after completion = %+v", live)
	}
}

// TestClaimJournalRestartClaiming: a claim that was in flight when the
// CA died has an unknown outcome; reconciliation sends the idempotent
// RELEASE and leaves the job idle for re-matching.
func TestClaimJournalRestartClaiming(t *testing.T) {
	requireTracedLifecycle(t)
	dir := t.TempDir()
	p := newTestPool(t, figure1Machine(), "raman")
	raObs := obs.New()
	p.ra.Instrument(raObs)

	// Forge the previous incarnation's journal: a begin record with no
	// verdict, pointing at the live RA.
	j, err := OpenClaimJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	const trace = "t-before-restart"
	if err := j.Begin(1, "leonardo.cs.wisc.edu", p.ra.Contact(), trace); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	ca2 := NewCustomerDaemon(agent.NewCustomer("raman", nil), p.addr, 0, t.Logf)
	job := ca2.CA.Submit(classad.Figure2(), 100)
	if err := ca2.EnableJournal(dir, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca2.Close)

	// The provider never granted the claim, so the RELEASE is a no-op
	// there; the record is settled and the job stays idle.
	if live := ca2.Journal().Live(); len(live) != 0 {
		t.Errorf("unsettled journal after reconcile: %+v", live)
	}
	if jb, _ := ca2.CA.Job(job.ID); jb.Status != agent.JobIdle {
		t.Errorf("job = %s, want Idle for re-matching", jb.Status)
	}
	if p.ra.RA.State() != agent.StateUnclaimed {
		t.Errorf("RA state = %s", p.ra.RA.State())
	}
	requireReleaseTrace(t, raObs, trace)
}

// requireReleaseTrace fails the test unless the RA logged exactly one
// RELEASE, under the given trace.
func requireReleaseTrace(t *testing.T, raObs *obs.Obs, trace string) {
	t.Helper()
	var got []string
	for _, ev := range raObs.Events().Select("", 0) {
		if ev.Name == "release" {
			got = append(got, ev.Trace)
		}
	}
	if len(got) != 1 || got[0] != trace {
		t.Errorf("RA received RELEASEs under traces %q, want one under %q", got, trace)
	}
}

// TestManagerHAStandby: a Manager enrolled in HA stands down when
// another negotiator holds the lease in its own store.
func TestManagerHAStandby(t *testing.T) {
	env, clock := poolClock(10_000)
	mgr := NewManager(ManagerConfig{Env: env, HAName: "mgr", Logf: t.Logf})
	t.Cleanup(mgr.Close)

	// An external negotiator grabbed the lease first (in-process, as a
	// co-located standby would).
	if _, granted, err := mgr.Store().AcquireLease("other", 0); err != nil || !granted {
		t.Fatalf("external acquire: %v %v", granted, err)
	}
	res := mgr.RunCycle()
	if !res.Standby {
		t.Fatalf("cycle with foreign lease = %+v, want standby", res)
	}

	// After expiry the manager wins the next election and cycles.
	clock.Add(collector.DefaultLeaseTTL + 1)
	res = mgr.RunCycle()
	if res.Standby || res.Epoch != 2 {
		t.Fatalf("post-expiry cycle = %+v, want leader at epoch 2", res)
	}
}

// TestTracePropagatesAcrossFailover pins the causal trace through the
// HA story: the deposed leader's late MATCH for a job is fenced and
// recorded as an errored span of the job's trace, and the new leader's
// successful renegotiation of the same job — notify, claim, verdict —
// appears under the same trace ID. One `cstatus -trace` then shows the
// whole arc: the introduction that bounced off the epoch fence and the
// retry that landed.
func TestTracePropagatesAcrossFailover(t *testing.T) {
	h := newHAHarness(t)
	// Route every daemon's spans into one ring so the reassembled tree
	// can be asserted in one place.
	h.ra.Instrument(h.caObs)
	h.negB.Instrument(h.caObs)

	// Cycle 1: A leads under epoch 1 and matches job 1.
	job1 := h.ca.CA.Submit(classad.Figure2(), 100)
	h.advertise(t)
	if res := h.negA.Tick(false); res.Standby || res.Epoch != 1 || res.Notified != 1 {
		t.Fatalf("A's first tick = %+v, want leader at epoch 1 with one match", res)
	}
	if err := h.ca.Complete(job1.ID); err != nil {
		t.Fatal(err)
	}

	// Job 2 arrives carrying its submission-minted trace; A dies with
	// the match undone.
	job2 := h.ca.CA.Submit(classad.Figure2(), 100)
	trace := classad.TraceOf(job2.Ad)
	if trace == "" {
		t.Fatal("job 2 carries no trace ID")
	}
	h.advertise(t)

	// The new epoch reaches the CA first: a MATCH under epoch 2 for a
	// machine no idle job wants raises the fencing high-water mark and
	// is otherwise harmless.
	vax := classad.NewAd()
	vax.SetString(classad.AttrType, "Machine")
	vax.SetString(classad.AttrName, "vax")
	vax.SetString("Arch", "VAX")
	target := classad.NewAd()
	target.SetString(classad.AttrContact, h.ca.Contact())
	if _, err := sendToContact(nil, target, &protocol.Envelope{
		Type: protocol.TypeMatch, PeerAd: protocol.EncodeAd(vax), Epoch: 2, Trace: "t-vax",
	}); err != nil {
		t.Fatal(err)
	}

	// Now the deposed leader's queued MATCH for job 2 lands, stamped
	// with the job's trace context. The fence rejects it — and the
	// refusal joins the trace as an errored span.
	stale := figure1Machine()
	_, err := sendToContact(nil, target, &protocol.Envelope{
		Type: protocol.TypeMatch, PeerAd: protocol.EncodeAd(stale),
		Epoch: 1, Trace: trace, Span: "s-deposed",
	})
	if err == nil || !strings.Contains(err.Error(), "stale negotiator epoch") {
		t.Fatalf("stale MATCH error = %v, want epoch fence rejection", err)
	}

	// B takes over under epoch 2 and renegotiates job 2: the retry that
	// works, under the same trace.
	h.clock.Add(collector.DefaultLeaseTTL + 1)
	res := h.negB.Tick(false)
	if res.Standby || res.Epoch != 2 || res.Notified != 1 {
		t.Fatalf("B's takeover tick = %+v, want leader at epoch 2 with one match", res)
	}
	if j, _ := h.ca.CA.Job(job2.ID); j.Status != agent.JobRunning {
		t.Fatalf("job 2 = %s after failover", j.Status)
	}

	spans := h.caObs.Spans().Select(trace, 0)
	byKey := make(map[string]obs.Span)
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Fatalf("Select leaked foreign span %+v", sp)
		}
		byKey[sp.Src+"/"+sp.Name] = sp
	}
	fenced, ok := byKey["ca/match_fenced"]
	if !ok {
		t.Fatalf("no fenced span under trace %s (spans: %v)", trace, byKey)
	}
	if !strings.Contains(fenced.Err, "stale negotiator epoch 1") || fenced.Parent != "s-deposed" {
		t.Fatalf("fenced span = %+v, want errored child of the deposed leader's span", fenced)
	}
	notify, ok := byKey["negotiator/notify"]
	if !ok {
		t.Fatalf("no notify span from the new leader (spans: %v)", byKey)
	}
	claim, ok := byKey["ca/claim"]
	if !ok || claim.Parent != notify.ID || claim.Fields["outcome"] != "granted" {
		t.Fatalf("claim span = %+v, want granted child of notify %s", claim, notify.ID)
	}
	verdict, ok := byKey["ra/verdict"]
	if !ok || verdict.Parent != claim.ID || verdict.Fields["outcome"] != "accepted" {
		t.Fatalf("verdict span = %+v, want accepted child of claim %s", verdict, claim.ID)
	}
	if _, ok := byKey["matchmaker/negotiate"]; !ok {
		t.Errorf("no negotiate span from B's matchmaker (spans: %v)", byKey)
	}
}
