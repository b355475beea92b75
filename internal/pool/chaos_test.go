package pool

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/netx"
	"repro/internal/obs"
)

// chaosNet is the tightened network configuration the chaos suite
// runs under: every round-trip bounded in milliseconds-to-seconds so
// the whole suite finishes quickly, every retry seeded so a failing
// run replays.
func chaosNet(seed int64) (*netx.Dialer, netx.RetryPolicy) {
	dialer := &netx.Dialer{
		ConnectTimeout: time.Second,
		IOTimeout:      time.Second,
	}
	retry := netx.RetryPolicy{
		Attempts: 3,
		Base:     2 * time.Millisecond,
		Max:      20 * time.Millisecond,
		Jitter:   0.5,
		Seed:     seed,
	}
	return dialer, retry
}

// rebindListener re-listens on a specific just-released address,
// retrying briefly while the kernel finishes tearing down the old
// listener.
func rebindListener(t *testing.T, addr string) net.Listener {
	t.Helper()
	var err error
	for i := 0; i < 200; i++ {
		var ln net.Listener
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("could not rebind %s: %v", addr, err)
	return nil
}

// waitGoroutineBaseline polls until the goroutine count returns to
// (near) its pre-test baseline, failing if handlers leaked.
func waitGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosPoolCompletesAllJobs runs a full pool — manager, three
// RAs, a CA, a stream of jobs — under seeded fault injection on every
// listener: ≥30% of connections dropped at accept, resets and delays
// sprinkled per operation, a collector restart mid-heartbeat, and a
// provider killed outright. The paper's failure semantics must carry
// the pool through: every job completes, no claim round-trip outlives
// its deadline, ads lost to the collector restart are re-established
// by the advertising retry loop, and every handler goroutine drains.
func TestChaosPoolCompletesAllJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak with real sockets and timers; skipped in -short mode")
	}
	const seed = 20260806
	const nRAs = 3
	const nJobs = 8

	faults := netx.NewFaults(netx.FaultPlan{
		Seed:      seed,
		Drop:      0.30,
		Reset:     0.05,
		Delay:     0.20,
		DelayTime: 2 * time.Millisecond,
	})
	dialer, retry := chaosNet(seed)

	// The whole run is instrumented: recovery is asserted through the
	// metrics an operator would scrape, not just internal counters.
	o := obs.New()
	netx.Instrument(o.Registry())
	t.Cleanup(func() { netx.Instrument(nil) })
	faults.Publish(o.Registry())

	baseline := runtime.NumGoroutine()

	// Pool manager on a fixed address so its restart below lands on
	// the same contact the agents keep dialing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	collectorAddr := ln.Addr().String()
	mgr := NewManager(ManagerConfig{Logf: t.Logf, Dialer: dialer, NotifyRetry: retry, Obs: o})
	mgr.Serve(faults.Listener(ln))

	const adLifetime = 2 // seconds; a dead provider's stale ad ages out fast

	ras := make([]*ResourceDaemon, nRAs)
	for i := range ras {
		machine := figure1Machine()
		machine.SetString(classad.AttrName, fmt.Sprintf("chaos%d.example", i))
		ra := NewResourceDaemon(agent.NewResource(machine, nil), collectorAddr, adLifetime, t.Logf)
		ra.Instrument(o)
		ra.ConfigureNetwork(dialer, retry)
		ra.IdleTimeout = 2 * time.Second
		raLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ra.Serve(faults.Listener(raLn))
		ras[i] = ra
	}

	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), collectorAddr, adLifetime, t.Logf)
	ca.Instrument(o)
	ca.ConfigureNetwork(dialer, retry)
	ca.IdleTimeout = 2 * time.Second
	ca.ClaimTimeout = 500 * time.Millisecond
	caLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ca.Serve(faults.Listener(caLn))

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

	deadline := time.Now().Add(90 * time.Second)
	deadRA := -1
	for round := 1; !allDone(); round++ {
		if time.Now().After(deadline) {
			for _, id := range ids {
				j, _ := ca.CA.Job(id)
				t.Logf("job %d: %s (done %.0f/%.0f)", id, j.Status, j.Done, j.Work)
			}
			t.Fatalf("jobs incomplete after %d rounds; faults: %+v", round, faults.Stats())
		}
		switch round {
		case 4:
			// Collector restart mid-heartbeat: the store (and every
			// ad in it) is lost; agents must re-establish state via
			// their periodic advertising alone.
			mgr.Close()
			mgr = NewManager(ManagerConfig{Logf: t.Logf, Dialer: dialer, NotifyRetry: retry, Obs: o})
			mgr.Serve(faults.Listener(rebindListener(t, collectorAddr)))
		case 6:
			// Provider death: its stale ad keeps drawing matches
			// until the lifetime expires; every claim against it must
			// fail within the claim deadline and requeue the job.
			ras[0].Close()
			deadRA = 0
		}
		for i, ra := range ras {
			if i != deadRA {
				_ = ra.Advertise() // faults tolerated; retried next round
			}
		}
		_ = ca.AdvertiseIdle()
		mgr.RunCycle()
		// Jobs run to completion between cycles; Complete also
		// retries any release a previous round failed to deliver.
		for _, j := range ca.CA.Snapshot() {
			if j.Status == agent.JobRunning || j.Status == agent.JobCompleted {
				_ = ca.Complete(j.ID)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The fault plan actually bit: with 30% drops configured over
	// this much traffic, silence here would mean the injector was
	// wired to nothing.
	if st := faults.Stats(); st.Drops == 0 {
		t.Fatalf("no faults injected: %+v", st)
	}
	okClaims, rejected := ca.ClaimStats()
	t.Logf("claims: %d ok, %d rejected/failed; faults: %+v", okClaims, rejected, faults.Stats())
	if okClaims < nJobs {
		t.Errorf("claims ok = %d, want >= %d (every job must have claimed once)", okClaims, nJobs)
	}

	// No claim round-trip may outlive its configured deadline (plus
	// the bounded dial and scheduling slack).
	maxAllowed := ca.ClaimTimeout + dialer.ConnectTimeout + 500*time.Millisecond
	if got := ca.MaxClaimDuration(); got > maxAllowed {
		t.Errorf("slowest claim round-trip %v exceeds bound %v", got, maxAllowed)
	}

	// Expired ads are re-established after recovery: with faults off,
	// one clean advertising round repopulates the restarted
	// collector's store with every surviving provider.
	faults.SetEnabled(false)
	for i, ra := range ras {
		if i == deadRA {
			continue
		}
		if err := ra.Advertise(); err != nil {
			t.Errorf("clean re-advertise of RA %d: %v", i, err)
		}
		name := fmt.Sprintf("chaos%d.example", i)
		if _, ok := mgr.Store().Lookup(name); !ok {
			t.Errorf("ad %s not re-established after collector restart", name)
		}
	}

	// Recovery left its trace in the metrics an operator would scrape:
	// the transport retried through the injected faults, and every
	// claim round-trip landed in the latency histogram.
	snap := o.Registry().Snapshot()
	if got := snap.Counters["netx_retries_total"]; got == 0 {
		t.Errorf("netx_retries_total = 0; 30%% drops must force retries")
	}
	if got := snap.Counters["netx_dials_total"]; got == 0 {
		t.Errorf("netx_dials_total = 0; instrumentation wired to nothing")
	}
	if h := snap.Histograms["pool_claim_seconds"]; h.Count < int64(nJobs) {
		t.Errorf("pool_claim_seconds count = %d, want >= %d", h.Count, nJobs)
	}
	if got := snap.Gauges["netx_fault_drops"]; got == 0 {
		t.Errorf("netx_fault_drops gauge = 0, want the injector's drop count")
	}

	// Teardown drains every handler: goroutine count returns to the
	// pre-test baseline, and the handler gauges agree.
	ca.Close()
	for i, ra := range ras {
		if i != deadRA {
			ra.Close()
		}
	}
	mgr.Close()
	waitGoroutineBaseline(t, baseline)
	for _, g := range []string{"collector_handlers", "pool_ca_handlers", "pool_ra_handlers"} {
		waitGaugeZero(t, o, g)
	}
}

// TestChaosWedgedPeerCannotPinHandler: a client that connects and
// then goes silent is disconnected by the server's idle deadline —
// the handler goroutine count returns to baseline while the wedged
// client still holds its socket open.
func TestChaosWedgedPeerCannotPinHandler(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak with real sockets and timers; skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()
	ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), "127.0.0.1:1", 0, t.Logf)
	ra.IdleTimeout = 50 * time.Millisecond
	contact, err := ra.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// A peer that dials and wedges without sending a single envelope.
	conn, err := net.Dial("tcp", contact)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The handler must give up on its own — before the daemon is
	// closed, not because of it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		if _, err := conn.Read(buf); err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				break // server closed our connection: handler exited
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("idle deadline never fired: wedged peer still connected")
		}
	}

	ra.Close()
	waitGoroutineBaseline(t, baseline)
}

// TestChaosClaimAgainstWedgedProviderIsBounded: a "provider" that
// accepts the claim connection and then never replies. The CA's claim
// round-trip must fail within ClaimTimeout and requeue the job rather
// than hang the notification handler.
func TestChaosClaimAgainstWedgedProviderIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak with real sockets and timers; skipped in -short mode")
	}
	// The wedge: accepts and holds connections open silently.
	wedge, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wedge.Close()
	go func() {
		for {
			c, err := wedge.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	// The manager's advisory provider notification also hits the
	// wedge; a tight dialer keeps that leg bounded in milliseconds.
	mgr := NewManager(ManagerConfig{Logf: t.Logf,
		Dialer:      &netx.Dialer{ConnectTimeout: time.Second, IOTimeout: 200 * time.Millisecond},
		NotifyRetry: netx.RetryPolicy{Attempts: 2, Base: 5 * time.Millisecond, Seed: 1},
	})
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)

	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), addr, 0, t.Logf)
	ca.ClaimTimeout = 100 * time.Millisecond
	if _, err := ca.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)

	job := ca.CA.Submit(classad.Figure2(), 100)
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	// A machine ad whose Contact is the wedge, advertised directly.
	machine := figure1Machine()
	machine.SetString(classad.AttrContact, wedge.Addr().String())
	machine.SetString(classad.AttrTicket, "deadbeef")
	if err := mgr.Store().Update(machine, 0); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	res := mgr.RunCycle()
	elapsed := time.Since(start)
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(res.Matches))
	}
	// The claim failed within its deadline; generous slack for the
	// machinery around it.
	if elapsed > 2*time.Second {
		t.Fatalf("cycle against wedged provider took %v", elapsed)
	}
	if got := ca.MaxClaimDuration(); got > time.Second {
		t.Fatalf("claim round-trip %v not bounded by ClaimTimeout", got)
	}
	// The job survived: still idle, ready for re-matching.
	j, _ := ca.CA.Job(job.ID)
	if j.Status != agent.JobIdle {
		t.Fatalf("job status = %s, want Idle (requeued)", j.Status)
	}
	if _, rejected := ca.ClaimStats(); rejected != 1 {
		t.Fatalf("rejected claims = %d, want 1", rejected)
	}
}

// TestChaosReuseOutlivedByPeers runs a pool whose servers drop idle
// connections long before the client cache does (every daemon's
// IdleTimeout is 50ms against the cache's idle window), behind fault
// listeners that reset connections. Every third round waits out the
// servers' timeout, so the next conversation with each peer meets a
// connection the peer has closed: collector traffic, MATCH and RELEASE
// are replayed on a fresh connection, a CLAIM fails and its job goes
// back to the queue. Reuse must not turn one dropped connection into a
// lost job: every job completes, no RA ever holds two claims, and no
// MATCH leads to a second CLAIM.
func TestChaosReuseOutlivedByPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak with real sockets and timers; skipped in -short mode")
	}
	const seed = 20261015
	const nRAs = 3
	const nJobs = 8
	const serverIdle = 50 * time.Millisecond
	if serverIdle >= netx.IdleConnTimeout {
		t.Fatalf("server idle timeout %v is not below the cache's window %v", serverIdle, netx.IdleConnTimeout)
	}
	faults := netx.NewFaults(netx.FaultPlan{Seed: seed, Reset: 0.03})
	dialer, retry := chaosNet(seed)
	t.Cleanup(dialer.CloseIdle)
	o := obs.New()
	netx.Instrument(o.Registry())
	t.Cleanup(func() { netx.Instrument(nil) })

	mgr := NewManager(ManagerConfig{Logf: t.Logf, Dialer: dialer, NotifyRetry: retry})
	t.Cleanup(mgr.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := collector.NewServer(mgr.Store(), t.Logf)
	srv.IdleTimeout = serverIdle
	collectorAddr := srv.Serve(faults.Listener(ln))
	t.Cleanup(srv.Close)

	ras := make(map[string]*ResourceDaemon)
	for i := 0; i < nRAs; i++ {
		machine := figure1Machine()
		name := fmt.Sprintf("reuse%d.example", i)
		machine.SetString(classad.AttrName, name)
		ra := NewResourceDaemon(agent.NewResource(machine, nil), collectorAddr, 0, t.Logf)
		ra.ConfigureNetwork(dialer, retry)
		ra.IdleTimeout = serverIdle
		raLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ra.Serve(faults.Listener(raLn))
		t.Cleanup(ra.Close)
		ras[name] = ra
	}
	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), collectorAddr, 0, t.Logf)
	ca.Instrument(o)
	ca.ConfigureNetwork(dialer, retry)
	ca.IdleTimeout = serverIdle
	ca.ClaimTimeout = 500 * time.Millisecond
	caLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ca.Serve(faults.Listener(caLn))
	t.Cleanup(ca.Close)

	for i := 0; i < nJobs; i++ {
		ca.CA.Submit(classad.Figure2(), 10)
	}
	completed := func() int {
		return ca.CA.Counts()[agent.JobCompleted]
	}
	deadline := time.Now().Add(60 * time.Second)
	for round := 1; completed() < nJobs; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs completed after %d rounds; faults %+v", completed(), nJobs, round, faults.Stats())
		}
		if round%3 == 0 {
			time.Sleep(2 * serverIdle) // every cached connection is now dead at the far end
		}
		for _, ra := range ras {
			_ = ra.Advertise()
		}
		_ = ca.AdvertiseIdle()
		mgr.RunCycle()

		// No RA holds two claims: each runs at most one of the
		// customer's jobs, and that is the job its own claim names.
		running := make(map[string][]int)
		for _, j := range ca.CA.Snapshot() {
			if j.Status == agent.JobRunning {
				running[j.Resource] = append(running[j.Resource], j.ID)
			}
		}
		for machine, ids := range running {
			if len(ids) > 1 {
				t.Fatalf("round %d: jobs %v all run on %s", round, ids, machine)
			}
			c, held := ras[machine].RA.CurrentClaim()
			if id, _ := agent.JobIDOf(c.Job); !held || id != ids[0] {
				t.Fatalf("round %d: job %d runs on %s, whose claim is %+v (held %v)", round, ids[0], machine, c, held)
			}
		}
		for _, j := range ca.CA.Snapshot() {
			if j.Status == agent.JobRunning || j.Status == agent.JobCompleted {
				_ = ca.Complete(j.ID)
			}
		}
	}

	// No MATCH led to a second CLAIM: one claim outcome per MATCH
	// session and job, however the MATCH was retried or replayed. The
	// session, not the trace, names the MATCH: a job re-matched in a
	// later cycle keeps its trace but gets a new session.
	claims := make(map[string]int)
	for _, ev := range o.Events().Select("", 0) {
		switch ev.Name {
		case "claim_ok", "claim_rejected", "claim_failed":
			session := ev.Fields["session"]
			if session == "" {
				t.Errorf("%s entry for job %s names no MATCH session", ev.Name, ev.Fields["job"])
			}
			key := session + "/" + ev.Fields["job"]
			if claims[key]++; claims[key] > 1 {
				t.Errorf("job %s was claimed %d times for MATCH session %s", ev.Fields["job"], claims[key], session)
			}
		}
	}
	snap := o.Registry().Snapshot()
	t.Logf("%d claims for %d jobs; %d connection reuses, %d dials; faults %+v",
		len(claims), nJobs, snap.Counters["netx_conn_reuses_total"], snap.Counters["netx_dials_total"], faults.Stats())
	if snap.Counters["netx_conn_reuses_total"] == 0 {
		t.Error("no conversation reused a connection")
	}
	if faults.Stats().Resets == 0 {
		t.Error("no connection was reset")
	}
}
