package pool

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
)

// TestChargeOnClaimAck pins the fair-share billing rule: usage is
// charged when the customer's MATCH ack reports the claim was granted,
// not when the match is emitted. A match that bounces off claim-time
// revalidation (the weak-consistency path of §3.2) costs the customer
// nothing; the successful retry costs exactly one charge. modelcheck's
// MC104 (usage-ledger conservation) is the exhaustive backstop for
// this test's single schedule.
func TestChargeOnClaimAck(t *testing.T) {
	p := newTestPool(t, figure1Machine(), "tannenba")
	p.ca.CA.Submit(classad.Figure2(), 100)
	if err := p.ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := p.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	// The machine's state moves on between advertisement and claim:
	// the match still happens, the claim bounces.
	p.ra.RA.SetDynamic("KeyboardIdle", classad.Int(2))

	res := p.mgr.RunCycle()
	if len(res.Matches) != 1 || res.Notified != 1 {
		t.Fatalf("bounce cycle = %+v", res)
	}
	if res.Charged != 0 {
		t.Fatalf("bounced match charged %d customers", res.Charged)
	}
	if u := p.mgr.Usage().Effective("tannenba"); u != 0 {
		t.Fatalf("usage after bounced match = %v, want 0", u)
	}

	// The owner leaves; the retry cycle's claim lands and bills once.
	p.ra.RA.SetDynamic("KeyboardIdle", classad.Int(3600))
	if err := p.ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := p.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	res = p.mgr.RunCycle()
	if res.Notified != 1 || p.ra.RA.State() != agent.StateClaimed {
		t.Fatalf("retry cycle = %+v, RA state %s", res, p.ra.RA.State())
	}
	if res.Charged != 1 {
		t.Fatalf("granted claim charged %d customers, want 1", res.Charged)
	}
	if u := p.mgr.Usage().Effective("tannenba"); u != 1 {
		t.Fatalf("usage after granted claim = %v, want 1", u)
	}
}

// TestChargeOnClaimAckLedger runs the same rule on a durable
// collector, where usage lives in the Negotiator ad each cycle
// publishes: the bounced cycle's ad bills nothing, and a manager
// restarted on the store after the granted claim loads exactly the one
// charge, so a restart neither resurrects a bogus bill nor loses a
// real one.
func TestChargeOnClaimAckLedger(t *testing.T) {
	dir := t.TempDir()
	env, _ := poolClock(1_000)
	cstore, err := collector.OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(ManagerConfig{Env: env, Logf: t.Logf, Store: cstore})
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), addr, 0, t.Logf)
	if _, err := ra.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ra.Close)
	ca := NewCustomerDaemon(agent.NewCustomer("tannenba", nil), addr, 0, t.Logf)
	if _, err := ca.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)

	ca.CA.Submit(classad.Figure2(), 100)
	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	ra.RA.SetDynamic("KeyboardIdle", classad.Int(2)) // claim will bounce
	if res := mgr.RunCycle(); res.Charged != 0 {
		t.Fatalf("bounced match charged: %+v", res)
	}
	if u, ok := publishedUsage(t, mgr.Store(), "negotiator@pool", "tannenba"); ok {
		t.Fatalf("published usage after a bounced match = %v, want no record", u)
	}

	ra.RA.SetDynamic("KeyboardIdle", classad.Int(3600))
	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	if res := mgr.RunCycle(); res.Charged != 1 {
		t.Fatalf("granted claim: %+v, want Charged=1", res)
	}
	if u, _ := publishedUsage(t, mgr.Store(), "negotiator@pool", "tannenba"); u != 1 {
		t.Fatalf("published usage after a granted claim = %v, want 1", u)
	}
	mgr.Close()

	cstore2, err := collector.OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(ManagerConfig{Env: env, Logf: t.Logf, Store: cstore2})
	defer mgr2.Close()
	if res := mgr2.RunCycle(); res.Charged != 0 {
		t.Fatalf("restarted manager's cycle charged: %+v", res)
	}
	if u := mgr2.Usage().Effective("tannenba"); u != 1 {
		t.Fatalf("usage after restart = %v, want 1", u)
	}
}
