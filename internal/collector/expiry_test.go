package collector

import (
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/netx"
)

// TestAdExpiryAndRecoveryAfterCollectorOutage exercises the
// advertising protocol's whole failure loop: an ad whose heartbeats
// are interrupted (the collector goes down) expires on schedule, and
// once the collector is back the advertiser's retry loop re-registers
// it — the paper's lifetime/refresh design carrying the pool through
// a collector outage (§4.3).
func TestAdExpiryAndRecoveryAfterCollectorOutage(t *testing.T) {
	var now atomic.Int64
	now.Store(1000)
	env := &classad.Env{
		Now:  func() int64 { return now.Load() },
		Rand: func() float64 { return 0.5 },
	}

	store := New(env)
	srv := NewServer(store, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client := &Client{
		Addr:   addr,
		Dialer: &netx.Dialer{ConnectTimeout: time.Second, IOTimeout: time.Second},
		Retry:  netx.RetryPolicy{Attempts: 3, Base: 5 * time.Millisecond, Seed: 1},
	}

	ad := classad.NewAd()
	ad.SetString(classad.AttrName, "heartbeat.example")
	ad.SetString(classad.AttrType, "Machine")

	// Heartbeat while healthy: the ad is live with a 10s lifetime.
	if err := client.Advertise(ad, 10); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Lookup("heartbeat.example"); !ok {
		t.Fatal("advertised ad not in store")
	}

	// The collector dies mid-heartbeat stream; further refreshes fail
	// even after the client's own retries.
	srv.Close()
	if err := client.Advertise(ad, 10); err == nil {
		t.Fatal("advertise to a dead collector succeeded")
	}

	// The un-refreshed ad expires exactly on schedule.
	now.Add(9)
	if _, ok := store.Lookup("heartbeat.example"); !ok {
		t.Fatal("ad expired before its lifetime elapsed")
	}
	now.Add(2) // past the 10s lifetime
	if _, ok := store.Lookup("heartbeat.example"); ok {
		t.Fatal("interrupted ad did not expire on schedule")
	}

	// The collector comes back on the same address (a restart). The
	// advertiser's periodic retry loop reconnects and the ad
	// reappears without any other coordination.
	store2 := New(env)
	srv2 := NewServer(store2, t.Logf)
	if err := rebind(t, srv2, addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := client.Advertise(ad, 10); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("advertising loop never reconnected to the restarted collector")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := store2.Lookup("heartbeat.example"); !ok {
		t.Fatal("ad not re-established after collector recovery")
	}
}

// rebind listens on a specific released address, retrying briefly in
// case the kernel has not finished tearing the old listener down.
func rebind(t *testing.T, srv *Server, addr string) error {
	t.Helper()
	var err error
	for i := 0; i < 100; i++ {
		var ln net.Listener
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			srv.Serve(ln)
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// TestExpiryWatermark pins the store's expiry discipline: no operation
// scans the ads while the clock is short of the earliest deadline,
// renewals trigger no scan, and the first operation at or after a
// deadline — whichever it is — publishes DeltaExpired.
func TestExpiryWatermark(t *testing.T) {
	env, now := testClock(1000)
	s := New(env)
	sub := s.Subscribe()
	for i, life := range []int64{50, 100, 200} {
		if err := s.Update(mkAd(t, fmt.Sprintf("m%d", i), "Machine", "Memory = 64"), life); err != nil {
			t.Fatal(err)
		}
	}
	sub.Drain()

	// Short of the first deadline (1050) nothing scans: reads, writes,
	// heartbeats and renewals alike.
	now.Store(1049)
	s.Len()
	s.All()
	s.Prune()
	s.Version()
	s.Lookup("m1")
	for i := 0; i < 3; i++ {
		if err := s.Update(mkAd(t, fmt.Sprintf("m%d", i), "Machine", "Memory = 64"), 500); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ApplyDelta("m0", s.Seq("m0"), s.Seq("m0")+1, nil, nil, 500); err != nil {
		t.Fatal(err)
	}
	if s.scans != 0 {
		t.Fatalf("%d expiry scan(s) ran before any deadline", s.scans)
	}
	if d := sub.Drain(); len(d) != 0 {
		t.Fatalf("renewals published %v", d)
	}

	// The renewals moved every deadline to 1549, but the watermark only
	// moves on a scan: the stale-low 1050 costs exactly one scan, which
	// finds nothing due and learns the real earliest deadline.
	now.Store(1050)
	s.Len()
	now.Store(1100)
	s.Len()
	if s.scans != 1 {
		t.Fatalf("%d scans after the stale watermark passed, want 1", s.scans)
	}
	if d := sub.Drain(); len(d) != 0 {
		t.Fatalf("a scan with nothing due published %v", d)
	}

	// An ad stored with an earlier deadline lowers the watermark, and
	// the first operation at the deadline publishes its expiry — here a
	// Lookup of another ad.
	if err := s.Update(mkAd(t, "short", "Machine", "Memory = 8"), 10); err != nil {
		t.Fatal(err)
	}
	sub.Drain()
	now.Store(1109)
	if s.Len() != 4 || s.scans != 1 {
		t.Fatalf("at 1109: %d ads, %d scans; want 4 and 1", s.Len(), s.scans)
	}
	now.Store(1110)
	if _, ok := s.Lookup("m1"); !ok {
		t.Fatal("m1 (deadline 1549) expired at 1110")
	}
	if d := sub.Drain(); len(d) != 1 || d[0].Kind != DeltaExpired || d[0].Name != "short" {
		t.Fatalf("at 1110 the store published %v, want short's expiry", d)
	}
	now.Store(1549)
	s.Prune()
	var expired []string
	for _, d := range sub.Drain() {
		if d.Kind != DeltaExpired {
			t.Fatalf("unexpected delta %v %s", d.Kind, d.Name)
		}
		expired = append(expired, d.Name)
	}
	sort.Strings(expired)
	if got := fmt.Sprint(expired); got != "[m0 m1 m2]" {
		t.Fatalf("expired %s at 1549, want the three renewed ads", got)
	}
	// An empty store has no deadline to wait for.
	scans := s.scans
	now.Store(99999)
	s.Len()
	if s.scans != scans {
		t.Fatal("an empty store scanned for expiries")
	}
}

// TestExpiryWatermarkSeededByRecovery: a recovered store expires
// replayed ads by their original absolute deadlines, so recovery must
// lower the watermark as it replays.
func TestExpiryWatermarkSeededByRecovery(t *testing.T) {
	dir := t.TempDir()
	env, now := testClock(1000)
	s, err := OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, life := range []int64{30, 100} {
		if err := s.Update(mkAd(t, fmt.Sprintf("m%d", i), "Machine", "Memory = 64"), life); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil { // m0 and m1 recover from the snapshot,
		t.Fatal(err)
	}
	if err := s.Update(mkAd(t, "m2", "Machine", "Memory = 64"), 20); err != nil { // m2 from the journal
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenDurable(dir, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.nextExpiry != 1020 {
		t.Fatalf("recovered watermark %d, want the earliest replayed deadline 1020", s2.nextExpiry)
	}
	sub := s2.Subscribe()
	now.Store(1030)
	if n := s2.Len(); n != 1 {
		t.Fatalf("%d ads live at 1030, want only m1", n)
	}
	if d := sub.Drain(); len(d) != 2 || d[0].Kind != DeltaExpired || d[1].Kind != DeltaExpired {
		t.Fatalf("recovered store published %v at 1030, want two expiries", d)
	}
}
