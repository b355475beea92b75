package matchmaker

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/classad"
	"repro/internal/collector"
)

// TestStressNegotiateAgainstMutatingStore exercises the weak-
// consistency model under the race detector: negotiators run sharded
// cycles (GOMAXPROCS 4) against snapshots of a collector store while a
// writer concurrently adds, invalidates, and expires advertisements.
// Matchmaking decisions are made against possibly-stale snapshots and
// validated later by the claiming protocol, so the only requirements
// here are memory safety (no data races) and that every match pairs a
// request with an offer from the negotiator's own snapshot.
func TestStressNegotiateAgainstMutatingStore(t *testing.T) {
	withProcs(t, 4)
	iters := 60
	if testing.Short() {
		iters = 10
	}

	// A clock the writer can advance to force lifetime expiries.
	var clock atomic.Int64
	env := &classad.Env{
		Now:  func() int64 { return clock.Load() },
		Rand: func() float64 { return 0.5 },
	}
	store := collector.New(env)

	// Seed the pool so that candidate lists land on both sides of
	// minParallelScan: a request's arch conjunct keeps about a third of
	// the ~400 machines, its memory floor between all and an eighth of
	// those.
	archs := []string{"INTEL", "SPARC", "ALPHA"}
	seedAd := func(i int) *classad.Ad {
		m := machine(fmt.Sprintf("m%d", i), archs[i%len(archs)], int64(32*(1+i%8)))
		return m
	}
	for i := 0; i < 400; i++ {
		if err := store.Update(seedAd(i), 1000); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var writerWG, wg sync.WaitGroup

	// Writer: churn the store — re-advertise with fresh ads, withdraw
	// some, advance the clock so short-lived ads expire mid-run.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		r := rand.New(rand.NewSource(99))
		for i := 0; !stop.Load(); i++ {
			switch i % 4 {
			case 0:
				_ = store.Update(seedAd(r.Intn(250)), 1000)
			case 1:
				// Short lifetime: expires on the next clock advance.
				_ = store.Update(seedAd(200+r.Intn(50)), 1)
			case 2:
				store.Invalidate(fmt.Sprintf("m%d", r.Intn(250)))
			case 3:
				clock.Add(2)
				store.Prune()
			}
		}
	}()

	// Negotiators: one Matchmaker per goroutine (usage accounting is
	// per-instance).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			m := New(Config{Env: env, FairShare: g%2 == 0})
			for i := 0; i < iters; i++ {
				requests := randomRequests(r, 10)
				snapshot := store.All()
				inSnapshot := make(map[*classad.Ad]bool, len(snapshot))
				for _, off := range snapshot {
					inSnapshot[off] = true
				}
				for _, match := range m.Negotiate(requests, snapshot) {
					if !inSnapshot[match.Offer] {
						t.Errorf("negotiator %d: match offer not from its snapshot", g)
						return
					}
				}
			}
		}(g)
	}

	// Wait for the negotiators, then release and drain the writer.
	wg.Wait()
	stop.Store(true)
	writerWG.Wait()
}

// TestStressOfferIndexConcurrent hammers one shared OfferIndex with
// concurrent Add/Remove/Candidates/Len calls — the maintenance pattern
// a long-lived matchmaker would use between cycles.
func TestStressOfferIndexConcurrent(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 80
	}
	env := classad.FixedEnv(0, 1)
	ix := NewOfferIndex(nil)
	var slots [64]atomic.Int64
	for i := range slots {
		slots[i].Store(int64(ix.Add(machine(fmt.Sprintf("m%d", i), "INTEL", int64(32+i)))))
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				k := r.Intn(len(slots))
				ix.Remove(int(slots[k].Load()))
				slots[k].Store(int64(ix.Add(machine(fmt.Sprintf("m%d", k), "SPARC", int64(16+r.Intn(128))))))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := job("u", "INTEL", 32)
			for i := 0; i < iters; i++ {
				cand, indexed := ix.Candidates(req, env)
				if !indexed {
					t.Errorf("reader %d: constraint unexpectedly not indexed", g)
					return
				}
				if n := ix.Len(); len(cand) > n+len(slots) {
					t.Errorf("reader %d: %d candidates from a %d-ad index", g, len(cand), n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
