package collector

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/classad"
	"repro/internal/store"
)

// testClock builds a classad.Env over a settable clock.
func testClock(start int64) (*classad.Env, *atomic.Int64) {
	var now atomic.Int64
	now.Store(start)
	env := &classad.Env{
		Now:  now.Load,
		Rand: func() float64 { return 0.5 },
	}
	return env, &now
}

func mkAd(t *testing.T, name, typ string, extra string) *classad.Ad {
	t.Helper()
	src := fmt.Sprintf("[ Name = %q; Type = %q; %s ]", name, typ, extra)
	ad, err := classad.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	return ad
}

func TestDurableStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	env, now := testClock(1000)

	s, err := OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(mkAd(t, "m1", "Machine", "Memory = 64"), 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(mkAd(t, "m2", "Machine", "Memory = 32"), 30); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(mkAd(t, "j1", "Job", "Owner = \"raman\""), 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(mkAd(t, "m1", "Machine", "Memory = 128"), 100); err != nil {
		t.Fatal(err) // refresh replaces
	}
	if !s.Invalidate("j1") {
		t.Fatal("invalidate found nothing")
	}
	s.Close()

	// Restart: m1 (refreshed) and m2 must be back, j1 gone.
	s2, err := OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Len(); n != 2 {
		t.Fatalf("recovered %d ads, want 2", n)
	}
	ad, ok := s2.Lookup("m1")
	if !ok {
		t.Fatal("m1 lost across restart")
	}
	if mem, _ := ad.Eval("Memory").IntVal(); mem != 128 {
		t.Fatalf("m1 Memory = %d, want the refreshed 128", mem)
	}
	if _, ok := s2.Lookup("j1"); ok {
		t.Fatal("invalidated ad resurrected")
	}

	// Stale ads re-expire on replay: advance past m2's deadline
	// (1000+30) but not m1's (1000+100).
	now.Store(1050)
	if _, ok := s2.Lookup("m2"); ok {
		t.Fatal("m2 should have re-expired from its original deadline")
	}
	if _, ok := s2.Lookup("m1"); !ok {
		t.Fatal("m1 expired early")
	}
}

func TestDurableStoreSnapshotPolicy(t *testing.T) {
	dir := t.TempDir()
	env, _ := testClock(1000)
	s, err := OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < persistSnapshotEvery+10; i++ {
		name := fmt.Sprintf("m%03d", i%20) // 20 live names, many refreshes
		if err := s.Update(mkAd(t, name, "Machine", "Memory = 1"), 0); err != nil {
			t.Fatal(err)
		}
	}
	stats, ok := s.LogStats()
	if !ok {
		t.Fatal("durable store reports no log stats")
	}
	if stats.Gen == 0 {
		t.Fatalf("no snapshot after %d updates (policy %d)", persistSnapshotEvery+10, persistSnapshotEvery)
	}
	if stats.SinceSnapshot >= persistSnapshotEvery {
		t.Fatalf("WAL still holds %d records after snapshot", stats.SinceSnapshot)
	}
	s.Close()

	s2, err := OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Len(); n != 20 {
		t.Fatalf("recovered %d ads, want 20", n)
	}
}

func TestDurableStoreCrashPoints(t *testing.T) {
	// Sweep every mutating filesystem op of a fixed workload; after
	// each crash a clean reopen must hold exactly the acknowledged
	// updates (invalidations are weakly consistent; this workload has
	// none). Beside the machines, a negotiator republishes its ad with
	// one more unit of fair-share usage each time, for an owner whose
	// name is no ClassAd identifier: the collector is usage's only
	// durable home, so the last acknowledged charge must survive too.
	negotiator := func(units int) *classad.Ad {
		return mkAd(t, "negotiator@pool", "Negotiator", fmt.Sprintf(
			`UsageAsOf = 1000; Usage = { [ Customer = "alice@cs.wisc.edu"; Usage = %d.0 ] }`, units))
	}
	var charged int // units in the last acknowledged Negotiator ad
	workload := func(s *Store) (acked []string) {
		charged = 0
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("m%d", i)
			if err := s.Update(mkAd(t, name, "Machine", "Memory = 1"), 0); err != nil {
				return acked
			}
			acked = append(acked, name)
			if err := s.Update(negotiator(i+1), 0); err != nil {
				return acked
			}
			charged = i + 1
		}
		return acked
	}
	env, _ := testClock(1000)

	// Count ops fault-free.
	ffs := store.NewFaultFS(nil, store.FaultPlan{})
	s, err := OpenDurable(t.TempDir(), env, ffs)
	if err != nil {
		t.Fatal(err)
	}
	workload(s)
	s.Close()
	total := ffs.Stats().Ops

	for k := 1; k <= total; k++ {
		dir := t.TempDir()
		ffs := store.NewFaultFS(nil, store.FaultPlan{Seed: int64(k), CrashAtOp: k})
		s, err := OpenDurable(dir, env, ffs)
		if err != nil {
			continue // crashed inside Open; nothing acknowledged
		}
		acked := workload(s)
		s.Close()
		s2, err := OpenDurable(dir, env, nil)
		if err != nil {
			t.Fatalf("crash@%d: recovery failed: %v", k, err)
		}
		for _, name := range acked {
			if _, ok := s2.Lookup(name); !ok {
				t.Errorf("crash@%d: acknowledged ad %s lost", k, name)
			}
		}
		if charged > 0 {
			ad, ok := s2.Lookup("negotiator@pool")
			if !ok {
				t.Fatalf("crash@%d: acknowledged Negotiator ad lost", k)
			}
			units, _ := classad.EvalString("Usage[0].Usage", ad)
			if u := units.RankVal(); u < float64(charged) {
				t.Errorf("crash@%d: recovered %g units of usage, %d were acknowledged", k, u, charged)
			}
		}
		s2.Close()
	}
}

func TestAcquireLease(t *testing.T) {
	env, now := testClock(1000)
	s := New(env) // leases work on in-memory stores too

	// First acquisition bumps the epoch from 0.
	l, ok, err := s.AcquireLease("neg-a", 15)
	if err != nil || !ok {
		t.Fatalf("initial acquire: %+v %v %v", l, ok, err)
	}
	if l.Epoch != 1 || l.Holder != "neg-a" || l.Deadline != 1015 {
		t.Fatalf("lease = %+v", l)
	}

	// A challenger is refused while the lease is live, and told the
	// incumbent's deadline.
	l2, ok, err := s.AcquireLease("neg-b", 15)
	if err != nil || ok {
		t.Fatalf("challenger got the lease: %+v %v %v", l2, ok, err)
	}
	if l2.Holder != "neg-a" || l2.Deadline != 1015 {
		t.Fatalf("challenger saw %+v", l2)
	}

	// Renewal keeps the epoch, pushes the deadline.
	now.Store(1010)
	l3, ok, _ := s.AcquireLease("neg-a", 15)
	if !ok || l3.Epoch != 1 || l3.Deadline != 1025 {
		t.Fatalf("renewal = %+v ok=%v", l3, ok)
	}

	// After expiry the challenger takes over with a bumped epoch.
	now.Store(1030)
	l4, ok, _ := s.AcquireLease("neg-b", 15)
	if !ok || l4.Epoch != 2 || l4.Holder != "neg-b" {
		t.Fatalf("takeover = %+v ok=%v", l4, ok)
	}
}

func TestLeaseEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	env, now := testClock(1000)
	s, err := OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.AcquireLease("neg-a", 15)
	now.Store(1020)
	l, _, _ := s.AcquireLease("neg-b", 15) // epoch 2
	if l.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", l.Epoch)
	}
	s.Close()

	// A restarted collector must not reissue epoch <= 2: that would
	// unfence neg-b's deposed predecessor.
	s2, err := OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LeaseInfo(); got.Epoch != 2 || got.Holder != "neg-b" {
		t.Fatalf("recovered lease %+v", got)
	}
	now.Store(1040)
	l2, ok, _ := s2.AcquireLease("neg-c", 15)
	if !ok || l2.Epoch != 3 {
		t.Fatalf("post-restart takeover = %+v ok=%v", l2, ok)
	}
}

func TestLeaseOverProtocol(t *testing.T) {
	env, _ := testClock(1000)
	srv := NewServer(New(env), t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: addr}
	l, ok, err := c.AcquireLease("neg-a", 30)
	if err != nil || !ok {
		t.Fatalf("acquire over protocol: %+v %v %v", l, ok, err)
	}
	if l.Epoch != 1 || l.Holder != "neg-a" || l.Deadline != 1030 {
		t.Fatalf("lease = %+v", l)
	}
	l2, ok, err := c.AcquireLease("neg-b", 30)
	if err != nil || ok {
		t.Fatalf("challenger over protocol: %+v %v %v", l2, ok, err)
	}
	if l2.Holder != "neg-a" {
		t.Fatalf("challenger saw %+v", l2)
	}
}
