package pool

// Event-loop tests: the event-driven manager must behave exactly like
// the timer-mode manager — same request/offer partition, same matches,
// same convergence under chaos — while doing no negotiation work when
// the pool is quiet. The chaos soak runs in -short mode too (scaled
// down): it is the regression net for the event path's retry and
// fallback machinery.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/netx"
	"repro/internal/obs"
)

// TestEventLoopMatchesTimerMode drives the same ad pool through a
// timer-mode manager and an event-driven one and asserts wake and
// cycle produce the same matches, charge the same usage, and leave the
// same store behind.
func TestEventLoopMatchesTimerMode(t *testing.T) {
	build := func() (*Manager, string) {
		mgr := NewManager(ManagerConfig{Logf: t.Logf, Obs: obs.New()})
		addr, err := mgr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mgr.Close)
		return mgr, addr
	}
	seedAds := func(mgr *Manager) {
		machine := figure1Machine()
		machine.SetString(classad.AttrName, "ev.example")
		if err := mgr.Store().Update(machine, 0); err != nil {
			t.Fatal(err)
		}
		job := classad.Figure2()
		job.SetString(classad.AttrName, "job.ev.1")
		if err := mgr.Store().Update(job, 0); err != nil {
			t.Fatal(err)
		}
	}

	timerMgr, _ := build()
	seedAds(timerMgr)
	timerRes := timerMgr.RunCycle()

	eventMgr, _ := build()
	el := eventMgr.StartEvents(time.Hour) // fallback out of the picture
	t.Cleanup(el.Stop)
	seedAds(eventMgr)
	waitEngineIdle(t, el)
	eventRes, stats := el.Wake()

	if len(timerRes.Matches) != 1 || len(eventRes.Matches) != 1 {
		t.Fatalf("matches: timer %d, event %d, want 1 and 1", len(timerRes.Matches), len(eventRes.Matches))
	}
	tr, er := timerRes.Matches[0], eventRes.Matches[0]
	if adName(tr.Request) != adName(er.Request) || adName(tr.Offer) != adName(er.Offer) {
		t.Fatalf("timer matched %s->%s, event matched %s->%s",
			adName(tr.Request), adName(tr.Offer), adName(er.Request), adName(er.Offer))
	}
	if timerRes.Requests != eventRes.Requests || timerRes.Offers != eventRes.Offers {
		t.Fatalf("pool split: timer %d/%d, event %d/%d",
			timerRes.Requests, timerRes.Offers, eventRes.Requests, eventRes.Offers)
	}
	if stats.FullRebuild != true {
		t.Fatalf("first wake was not the seeding full rebuild: %+v", stats)
	}

	// Quiescence: a content-identical re-advertise queues nothing, so
	// the event manager does no further negotiation work at all.
	seedless := figure1Machine()
	seedless.SetString(classad.AttrName, "ev.example")
	if err := eventMgr.Store().Update(seedless, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // give the pump a chance to (wrongly) queue
	if el.Engine().NeedsWake() {
		t.Fatalf("identical heartbeat queued negotiation work")
	}
}

// waitEngineIdle blocks until the pump has delivered everything the
// store has published so far (the subscription and engine queues are
// asynchronous).
func waitEngineIdle(t *testing.T, el *EventLoop) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !el.Engine().NeedsWake() {
		if time.Now().After(deadline) {
			t.Fatal("engine never received the seeded deltas")
		}
		time.Sleep(time.Millisecond)
	}
}

// chaosPoolRun is one full seeded chaos scenario: a manager (timer- or
// event-driven), RAs, a CA, jobs run to completion through injected
// faults. It returns once every job completed (or fails the test).
type chaosPoolRun struct {
	okClaims  int
	fallbacks int
	wakes     int64
	rounds    int
}

func runChaosPool(t *testing.T, seed int64, nJobs, nRAs int, drop float64, eventMode bool, fallback time.Duration, deadline time.Duration) chaosPoolRun {
	t.Helper()
	faults := netx.NewFaults(netx.FaultPlan{
		Seed:      seed,
		Drop:      drop,
		Reset:     0.05,
		Delay:     0.15,
		DelayTime: 2 * time.Millisecond,
	})
	dialer, retry := chaosNet(seed)
	o := obs.New()

	// Every server closes a connection idle for serverIdle, less than
	// the pause between rounds, so each round's conversations meet
	// closed cached connections and are accepted anew, each accept
	// rolling the drop: heartbeats, MATCH and RELEASE replay, a CLAIM
	// fails and its job requeues. On cached connections alone a run
	// accepts only a dozen or so.
	const serverIdle = 10 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(ManagerConfig{Logf: t.Logf, Notifier: Sender{Dialer: dialer, Retry: retry}, Obs: o})
	defer mgr.Close()
	srv := collector.NewServer(mgr.Store(), t.Logf)
	srv.Instrument(o)
	srv.IdleTimeout = serverIdle
	collectorAddr := srv.Serve(faults.Listener(ln))
	defer srv.Close()

	var el *EventLoop
	if eventMode {
		el = mgr.StartEvents(fallback)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go el.Run(ctx)
		defer el.Stop()
	}

	const adLifetime = 2
	ras := make([]*ResourceDaemon, nRAs)
	for i := range ras {
		machine := figure1Machine()
		machine.SetString(classad.AttrName, fmt.Sprintf("evchaos%d.example", i))
		ra := NewResourceDaemon(agent.NewResource(machine, nil), collectorAddr, adLifetime, t.Logf)
		ra.ConfigureNetwork(dialer, retry)
		ra.IdleTimeout = serverIdle
		raLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ra.Serve(faults.Listener(raLn))
		defer ra.Close()
		ras[i] = ra
	}

	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), collectorAddr, adLifetime, t.Logf)
	ca.ConfigureNetwork(dialer, retry)
	ca.IdleTimeout = serverIdle
	ca.ClaimTimeout = 500 * time.Millisecond
	caLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ca.Serve(faults.Listener(caLn))
	defer ca.Close()

	ids := make([]int, nJobs)
	for i := range ids {
		ids[i] = ca.CA.Submit(classad.Figure2(), 10).ID
	}
	allDone := func() bool {
		for _, id := range ids {
			if j, _ := ca.CA.Job(id); j.Status != agent.JobCompleted {
				return false
			}
		}
		return true
	}

	var run chaosPoolRun
	stopAt := time.Now().Add(deadline)
	for run.rounds = 1; !allDone(); run.rounds++ {
		if time.Now().After(stopAt) {
			for _, id := range ids {
				j, _ := ca.CA.Job(id)
				t.Logf("job %d: %s (done %.0f/%.0f)", id, j.Status, j.Done, j.Work)
			}
			t.Fatalf("%s mode: jobs incomplete after %d rounds; faults: %+v",
				modeName(eventMode), run.rounds, faults.Stats())
		}
		for _, ra := range ras {
			_ = ra.Advertise() // faults tolerated; retried next round
		}
		_ = ca.AdvertiseIdle()
		if !eventMode {
			mgr.RunCycle()
		}
		for _, j := range ca.CA.Snapshot() {
			if j.Status == agent.JobRunning || j.Status == agent.JobCompleted {
				_ = ca.Complete(j.ID)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := faults.Stats(); st.Drops == 0 {
		t.Fatalf("%s mode: no faults injected: %+v", modeName(eventMode), st)
	}
	run.okClaims, _ = ca.ClaimStats()
	if el != nil {
		// The fallback ticker fires on a quiet pool too — that is the
		// point of the safety net. Wait out at least one tick so the
		// run proves the net is alive, not just that deltas won.
		fbDeadline := time.Now().Add(10 * fallback)
		for el.Fallbacks() == 0 && time.Now().Before(fbDeadline) {
			time.Sleep(fallback / 10)
		}
		run.fallbacks = el.Fallbacks()
	}
	run.wakes = o.Registry().Snapshot().Counters["matchmaker_wakes_total"]
	return run
}

func modeName(eventMode bool) string {
	if eventMode {
		return "event"
	}
	return "timer"
}

// TestChaosEventPoolConvergesWithTimerMode runs the same seeded fault
// scenario through both drivers. Both must converge — every job
// completes — and the event run must show its machinery actually
// engaged: wakes happened, and the fallback rebuild fired (it is the
// retry path for matches whose notification the chaos ate). Scaled
// down but NOT skipped under -short: this is the event path's
// regression net in the fast loop.
func TestChaosEventPoolConvergesWithTimerMode(t *testing.T) {
	// The first draw of this seed's fault sequence (0.036) is below
	// either drop rate, and a run's first roll is the drop roll of its
	// first accept (nothing touches the injector before the first
	// heartbeat connects), so every run drops at least that connection.
	seed := int64(20260816)
	nJobs, nRAs, drop := 6, 3, 0.30
	deadline := 90 * time.Second
	if testing.Short() {
		nJobs, nRAs, drop = 3, 2, 0.15
		deadline = 30 * time.Second
	}

	event := runChaosPool(t, seed, nJobs, nRAs, drop, true, 300*time.Millisecond, deadline)
	timer := runChaosPool(t, seed, nJobs, nRAs, drop, false, 0, deadline)

	// Convergence parity: the harness fails the run that does not
	// complete, so reaching here means both converged; the claim floor
	// checks neither converged vacuously.
	if event.okClaims < nJobs {
		t.Errorf("event mode: claims ok = %d, want >= %d", event.okClaims, nJobs)
	}
	if timer.okClaims < nJobs {
		t.Errorf("timer mode: claims ok = %d, want >= %d", timer.okClaims, nJobs)
	}
	if event.wakes == 0 {
		t.Errorf("event mode: matchmaker_wakes_total = 0; the engine never ran")
	}
	if event.fallbacks == 0 {
		t.Errorf("event mode: fallback rebuild never fired over %d rounds", event.rounds)
	}
	t.Logf("event: %d rounds, %d wakes, %d fallbacks, %d claims; timer: %d rounds, %d claims",
		event.rounds, event.wakes, event.fallbacks, event.okClaims, timer.rounds, timer.okClaims)
}

// TestEventManagerSelfAdsDoNotWake pins the self-wake loop guard: the
// manager's own negotiator self-ad and daemon liveness ads (published
// after every wake) must not queue another wake.
func TestEventManagerSelfAdsDoNotWake(t *testing.T) {
	mgr := NewManager(ManagerConfig{Logf: t.Logf, Obs: obs.New()})
	if _, err := mgr.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	el := mgr.StartEvents(time.Hour)
	t.Cleanup(el.Stop)

	machine := figure1Machine()
	machine.SetString(classad.AttrName, "selfad.example")
	if err := mgr.Store().Update(machine, 0); err != nil {
		t.Fatal(err)
	}
	waitEngineIdle(t, el)
	el.Wake() // publishes the negotiator self-ad and daemon ads

	// The pump is asynchronous; give the self-ad deltas time to arrive
	// (they must be classified as ignorable, queueing nothing).
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if el.Engine().NeedsWake() {
			t.Fatalf("the manager's own post-wake self-ads woke the engine: self-wake loop")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
