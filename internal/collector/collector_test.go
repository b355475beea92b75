package collector

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/classad"
)

// tickEnv is a classad.Env whose clock the test advances manually.
type tickEnv struct {
	mu  sync.Mutex
	now int64
}

func (e *tickEnv) env() *classad.Env {
	return &classad.Env{
		Now: func() int64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.now
		},
		Rand: func() float64 { return 0.5 },
	}
}

func (e *tickEnv) advance(d int64) {
	e.mu.Lock()
	e.now += d
	e.mu.Unlock()
}

func namedAd(name string, mem int64) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Name", name)
	ad.SetString("Type", "Machine")
	ad.SetInt("Memory", mem)
	return ad
}

func TestStoreUpdateAndLookup(t *testing.T) {
	s := New(nil)
	if err := s.Update(namedAd("m1", 64), 0); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	ad, ok := s.Lookup("M1") // case-insensitive
	if !ok {
		t.Fatal("lookup failed")
	}
	if mem, _ := ad.Eval("Memory").IntVal(); mem != 64 {
		t.Errorf("Memory = %d", mem)
	}
	// Re-advertising replaces.
	if err := s.Update(namedAd("m1", 128), 0); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("len after refresh = %d, want 1", s.Len())
	}
	ad, _ = s.Lookup("m1")
	if mem, _ := ad.Eval("Memory").IntVal(); mem != 128 {
		t.Errorf("Memory after refresh = %d, want 128", mem)
	}
}

func TestStoreRequiresName(t *testing.T) {
	s := New(nil)
	if err := s.Update(classad.MustParse("[Memory = 64]"), 0); err == nil {
		t.Error("nameless ad accepted")
	}
	if err := s.Update(classad.MustParse("[Name = 5]"), 0); err == nil {
		t.Error("non-string Name accepted")
	}
}

func TestStoreExpiry(t *testing.T) {
	clock := &tickEnv{}
	s := New(clock.env())
	if err := s.Update(namedAd("short", 1), 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(namedAd("long", 1), 1000); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	clock.advance(11)
	if s.Len() != 1 {
		t.Errorf("after expiry len = %d, want 1", s.Len())
	}
	if _, ok := s.Lookup("short"); ok {
		t.Error("expired ad still visible")
	}
	if _, ok := s.Lookup("long"); !ok {
		t.Error("live ad pruned")
	}
	// A refresh extends the lease.
	if err := s.Update(namedAd("long", 1), 5); err != nil {
		t.Fatal(err)
	}
	clock.advance(4)
	if _, ok := s.Lookup("long"); !ok {
		t.Error("refreshed ad expired early")
	}
	clock.advance(2)
	if _, ok := s.Lookup("long"); ok {
		t.Error("refreshed ad did not expire")
	}
}

func TestStoreInvalidate(t *testing.T) {
	s := New(nil)
	_ = s.Update(namedAd("m1", 64), 0)
	if !s.Invalidate("M1") {
		t.Error("invalidate missed existing ad")
	}
	if s.Invalidate("m1") {
		t.Error("second invalidate reported success")
	}
	if s.Len() != 0 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestStoreQueryOneWay(t *testing.T) {
	s := New(nil)
	for i := 0; i < 5; i++ {
		_ = s.Update(namedAd(fmt.Sprintf("m%d", i), int64(32*(i+1))), 0)
	}
	query := classad.MustParse("[ Constraint = other.Memory >= 96 ]")
	got := s.Query(query)
	if len(got) != 3 {
		t.Errorf("query matched %d ads, want 3", len(got))
	}
	// A candidate's own constraint is ignored by one-way queries.
	fussy := namedAd("fussy", 256)
	fussy.Set("Constraint", classad.Lit(classad.Bool(false)))
	_ = s.Update(fussy, 0)
	if len(s.Query(query)) != 4 {
		t.Error("one-way query consulted the candidate's constraint")
	}
}

func TestStoreAllSortedDeterministic(t *testing.T) {
	s := New(nil)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		_ = s.Update(namedAd(n, 1), 0)
	}
	all := s.All()
	names := make([]string, len(all))
	for i, ad := range all {
		names[i], _ = ad.Eval("Name").StringVal()
	}
	if names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Errorf("order = %v", names)
	}
}

func TestStoreSelectType(t *testing.T) {
	s := New(nil)
	_ = s.Update(namedAd("m1", 64), 0)
	jobAd := classad.NewAd()
	jobAd.SetString("Name", "job-1")
	jobAd.SetString("Type", "Job")
	_ = s.Update(jobAd, 0)
	if got := s.SelectType("Machine"); len(got) != 1 {
		t.Errorf("Machine ads = %d, want 1", len(got))
	}
	if got := s.SelectType("job"); len(got) != 1 { // case-insensitive
		t.Errorf("Job ads = %d, want 1", len(got))
	}
	if got := s.SelectType("Printer"); len(got) != 0 {
		t.Errorf("Printer ads = %d, want 0", len(got))
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := New(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = s.Update(namedAd(fmt.Sprintf("m%d-%d", g, i%10), int64(i)), 0)
				s.Query(classad.MustParse("[Constraint = other.Memory >= 0]"))
				s.Invalidate(fmt.Sprintf("m%d-%d", g, (i+5)%10))
			}
		}(g)
	}
	wg.Wait()
}

// TestMissingDaemonIsForgotten: a daemon whose self-ad expires is
// listed missing, and is dropped once it has been missing for
// daemonForgetLifetimes of its lifetimes, so a pool whose daemons come
// and go keeps a bounded health table. A live daemon stays listed.
func TestMissingDaemonIsForgotten(t *testing.T) {
	clock := &tickEnv{now: 1000}
	s := New(clock.env())
	daemon := func(name string) *classad.Ad {
		ad := classad.NewAd()
		ad.SetString("Name", name)
		ad.SetString("Type", "Daemon")
		ad.SetString("Daemon", "ra")
		return ad
	}
	const lifetime = 60
	for _, name := range []string{"dead", "live"} {
		if err := s.Update(daemon(name), lifetime); err != nil {
			t.Fatal(err)
		}
	}
	status := func() map[string]string {
		out := map[string]string{}
		for _, d := range s.DaemonHealth() {
			out[d.Name] = d.Status
		}
		return out
	}
	// Walk the clock one lifetime at a time, refreshing only "live".
	for step := 1; step <= daemonForgetLifetimes+1; step++ {
		clock.advance(lifetime)
		if err := s.Update(daemon("live"), lifetime); err != nil {
			t.Fatal(err)
		}
		got := status()
		if got["live"] != "ok" {
			t.Fatalf("step %d: live daemon = %q, want ok", step, got["live"])
		}
		if step <= daemonForgetLifetimes && got["dead"] != "missing" {
			t.Fatalf("step %d: dead daemon = %q, want missing", step, got["dead"])
		}
		if step > daemonForgetLifetimes {
			if st, ok := got["dead"]; ok {
				t.Fatalf("step %d: dead daemon still listed %q after %d lifetimes missing", step, st, step-1)
			}
		}
	}
	if n := len(s.daemons); n != 1 {
		t.Errorf("health table holds %d entries, want 1", n)
	}
}
