package pool

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/classad"
)

// flockFixture stands up two independent pools (each with its own
// manager and one machine) and one customer daemon flocked to both.
type flockFixture struct {
	mgrA, mgrB *Manager
	raA, raB   *ResourceDaemon
	ca         *CustomerDaemon
}

func newFlock(t *testing.T) *flockFixture {
	t.Helper()
	f := &flockFixture{}
	f.mgrA = NewManager(ManagerConfig{Logf: t.Logf})
	addrA, err := f.mgrA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.mgrA.Close)
	f.mgrB = NewManager(ManagerConfig{Logf: t.Logf})
	addrB, err := f.mgrB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.mgrB.Close)

	mkMachine := func(name string) *classad.Ad {
		ad := figure1Machine()
		ad.SetString(classad.AttrName, name)
		return ad
	}
	f.raA = NewResourceDaemon(agent.NewResource(mkMachine("wsA.poolA"), nil), addrA, 0, t.Logf)
	if _, err := f.raA.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.raA.Close)
	f.raB = NewResourceDaemon(agent.NewResource(mkMachine("wsB.poolB"), nil), addrB, 0, t.Logf)
	if _, err := f.raB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.raB.Close)

	f.ca = NewCustomerDaemon(agent.NewCustomer("raman", nil), addrA, 0, t.Logf)
	f.ca.AddFlockTarget(addrB)
	if _, err := f.ca.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.ca.Close)
	return f
}

// TestFlockingSpreadsWork: with the home pool's machine busy, the
// second job runs in the remote pool. Pool B first pairs its machine
// with the job pool A already started — its copy of that request is
// stale — so the MATCH is acknowledged without a claim and B drops the
// request; its next cycle pairs the machine with the second job.
func TestFlockingSpreadsWork(t *testing.T) {
	f := newFlock(t)
	j1 := f.ca.CA.Submit(classad.Figure2(), 100)
	j2 := f.ca.CA.Submit(classad.Figure2(), 100)

	if err := f.raA.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := f.raB.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := f.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	// Home pool cycle serves one job.
	resA := f.mgrA.RunCycle()
	if resA.Notified != 1 {
		t.Fatalf("pool A cycle: %+v errors=%v", resA, resA.Errors)
	}
	// Remote pool cycles serve the other.
	resB := f.mgrB.RunCycle()
	if resB.Notified != 1 || resB.Charged != 0 {
		t.Fatalf("pool B's first cycle: %+v, want the stale match for job 1", resB)
	}
	resB = f.mgrB.RunCycle()
	if resB.Notified != 1 || resB.Charged != 1 {
		t.Fatalf("pool B's second cycle: %+v, want job 2 claimed", resB)
	}
	if f.raA.RA.State() != agent.StateClaimed || f.raB.RA.State() != agent.StateClaimed {
		t.Errorf("states: A=%s B=%s, want both Claimed", f.raA.RA.State(), f.raB.RA.State())
	}
	running := 0
	for _, id := range []int{j1.ID, j2.ID} {
		if j, _ := f.ca.CA.Job(id); j.Status == agent.JobRunning {
			running++
		}
	}
	if running != 2 {
		t.Errorf("running jobs = %d, want 2 across the flock", running)
	}
}

// TestFlockingDoubleMatchHarmless: both pools match the same single
// job; the first claim wins, the second pool's stale match is
// acknowledged without error, and its machine stays unclaimed for the
// next cycle.
func TestFlockingDoubleMatchHarmless(t *testing.T) {
	f := newFlock(t)
	f.ca.CA.Submit(classad.Figure2(), 100)
	if err := f.raA.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := f.raB.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := f.ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	resA := f.mgrA.RunCycle()
	if resA.Notified != 1 {
		t.Fatalf("pool A: %+v", resA)
	}
	// Pool B still holds the job's ad (each pool has its own store)
	// and matches it again.
	resB := f.mgrB.RunCycle()
	if len(resB.Matches) != 1 {
		t.Fatalf("pool B should still match the stale ad: %+v", resB)
	}
	if len(resB.Errors) != 0 {
		t.Errorf("stale flock match produced errors: %v", resB.Errors)
	}
	// The job runs exactly once; pool B's machine is untouched.
	if f.raA.RA.State() != agent.StateClaimed {
		t.Errorf("pool A machine state = %s", f.raA.RA.State())
	}
	if f.raB.RA.State() != agent.StateUnclaimed {
		t.Errorf("pool B machine state = %s, want Unclaimed", f.raB.RA.State())
	}
	okClaims, rejected := f.ca.ClaimStats()
	if okClaims != 1 || rejected != 0 {
		t.Errorf("claims ok=%d rejected=%d", okClaims, rejected)
	}
}
