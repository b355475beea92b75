package pool

import (
	"bufio"
	"net"
	"testing"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/protocol"
)

// queryCA poses a one-way query to a customer daemon, the way cqueue
// does.
func queryCA(t *testing.T, addr string, constraint string) []*classad.Ad {
	t.Helper()
	query := classad.NewAd()
	if err := query.SetExprString(classad.AttrConstraint, constraint); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := protocol.Write(conn, &protocol.Envelope{
		Type: protocol.TypeQuery, Ad: protocol.EncodeAd(query),
	}); err != nil {
		t.Fatal(err)
	}
	reply, err := protocol.Read(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != protocol.TypeQueryReply {
		t.Fatalf("reply = %s (%s)", reply.Type, reply.Reason)
	}
	out := make([]*classad.Ad, 0, len(reply.Ads))
	for _, s := range reply.Ads {
		ad, err := protocol.DecodeAd(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ad)
	}
	return out
}

func TestCustomerQueueQuery(t *testing.T) {
	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), "127.0.0.1:1", 0, t.Logf)
	addr, err := ca.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()

	j1 := ca.CA.Submit(classad.MustParse(`[ Cmd = "a" ]`), 100)
	j2 := ca.CA.Submit(classad.MustParse(`[ Cmd = "b" ]`), 100)
	if err := ca.CA.MarkRunning(j2.ID, "w9"); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.CA.Progress(j2.ID, 25, false); err != nil {
		t.Fatal(err)
	}

	all := queryCA(t, addr, "true")
	if len(all) != 2 {
		t.Fatalf("query all = %d jobs", len(all))
	}
	running := queryCA(t, addr, `other.JobStatus == "Running"`)
	if len(running) != 1 {
		t.Fatalf("running = %d", len(running))
	}
	if host, _ := running[0].Eval("RemoteHost").StringVal(); host != "w9" {
		t.Errorf("RemoteHost = %q", host)
	}
	if done, _ := running[0].Eval("WorkDone").NumberVal(); done != 25 {
		t.Errorf("WorkDone = %v", done)
	}
	idle := queryCA(t, addr, `other.JobStatus == "Idle"`)
	if len(idle) != 1 {
		t.Fatalf("idle = %d", len(idle))
	}
	if id, _ := idle[0].Eval("JobId").IntVal(); id != int64(j1.ID) {
		t.Errorf("idle job id = %d", id)
	}
}

// TestManagerUsagePersistence: a manager on a durable collector keeps
// fair-share usage in the Negotiator ad each cycle publishes, so a
// manager restarted on the reopened store loads the history at its
// first cycle. The owner is not a ClassAd identifier: the published
// table must still round-trip through the store's journal.
func TestManagerUsagePersistence(t *testing.T) {
	dir := t.TempDir()
	env, _ := poolClock(1_000)
	open := func() *Manager {
		t.Helper()
		cstore, err := collector.OpenDurable(dir, env, nil)
		if err != nil {
			t.Fatalf("opening the durable store: %v", err)
		}
		return NewManager(ManagerConfig{
			Env:        env,
			Matchmaker: matchmaker.Config{FairShare: true},
			Store:      cstore,
			Logf:       t.Logf,
		})
	}
	mgr := open()
	// Seed the store directly (in-process advertising): one machine,
	// one job.
	machine := classad.Figure1()
	machine.SetInt("DayTime", 22*3600)
	machine.SetString(classad.AttrTicket, "t")
	if err := mgr.Store().Update(machine, 0); err != nil {
		t.Fatal(err)
	}
	job := classad.Figure2()
	job.SetString(classad.AttrName, "alice/job1")
	job.SetString(classad.AttrOwner, "alice@cs.wisc.edu")
	if err := mgr.Store().Update(job, 0); err != nil {
		t.Fatal(err)
	}
	res := mgr.RunCycle()
	// Notification fails (no contacts), and — charge-on-claim-ack —
	// a match that never produced an acknowledged claim bills nothing.
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %d", len(res.Matches))
	}
	if u := mgr.Usage().Effective("alice@cs.wisc.edu"); u != 0 {
		t.Errorf("usage = %v, want 0 for an unacknowledged match", u)
	}
	// Charge as an acknowledged claim would have; the next cycle
	// publishes it.
	mgr.Usage().Record("alice@cs.wisc.edu", 1)
	mgr.RunCycle()
	mgr.Close()

	mgr2 := open()
	defer mgr2.Close()
	mgr2.RunCycle()
	if u := mgr2.Usage().Effective("alice@cs.wisc.edu"); u != 1 {
		t.Errorf("restored usage = %v, want 1", u)
	}
}
