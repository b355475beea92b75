package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/bench/gen"
	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/pool"
	"repro/internal/protocol"
	"repro/internal/store"
)

// The ladder times calls into each module's public functions from
// outside, one module per rung, on inputs from the same generator the
// workloads use. Each rung reports the median time of one call and the
// allocations per call. README.md says which end-to-end metric each
// rung should move.

// sink keeps results alive so calls are not optimised away.
var sink any

type rungs struct {
	m     map[string]Metric
	scale int // 1, or 10 for the smoke test: calls per rung are divided by it

	g        *gen.Gen
	machines []*classad.Ad // the pool.10k ad set
	jobs     []*classad.Ad // two requests no machine satisfies
	outDir   string
}

// time runs fn n times and records <name>_<unit> (median of one call)
// and <name>_allocs (heap allocations per call). prep, when not nil,
// runs before each call, untimed and uncounted.
func (l *rungs) time(name, unit string, n int, prep, fn func(i int) error) error {
	n = max(n/l.scale, 5)
	per := float64(time.Microsecond)
	if unit == "ms" {
		per = float64(time.Millisecond)
	}
	times := make([]float64, 0, n)
	var before, after runtime.MemStats
	var allocs uint64
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if prep != nil {
			if err := prep(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		if err := fn(i); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		times = append(times, float64(time.Since(t0))/per)
		if prep != nil {
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
		}
	}
	if prep == nil {
		runtime.ReadMemStats(&after)
		allocs = after.Mallocs - before.Mallocs
	}
	l.m[name+"_"+unit] = Metric{Value: median(times), Unit: unit, Samples: n}
	l.m[name+"_allocs"] = Metric{Value: float64(allocs) / float64(n), Unit: "count", Samples: n}
	return nil
}

func ladder(seed int64, tiny bool, outDir string) (map[string]Metric, error) {
	l := &rungs{m: map[string]Metric{}, scale: 1, g: gen.New(seed), outDir: outDir}
	poolSize := 10000
	if tiny {
		l.scale, poolSize = 10, 500
	}
	l.machines = make([]*classad.Ad, poolSize)
	for i := range l.machines {
		l.machines[i] = l.g.BackgroundMachine(fmt.Sprintf("bg%05d.pool.example", i))
	}
	for i, owner := range gen.Owners {
		job := l.g.Job(gen.Platforms[i], true)
		job.SetString(classad.AttrOwner, owner)
		job.SetString(classad.AttrName, fmt.Sprintf("%s/job%d", owner, i))
		l.jobs = append(l.jobs, job)
	}
	for _, rung := range []func() error{
		l.classadRungs, l.wireRungs, l.collectorRungs, l.storeRungs, l.matchmakerRungs, l.claimRungs,
	} {
		if err := rung(); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

func (l *rungs) classadRungs() error {
	machines, jobs := l.machines, l.jobs
	srcs := make([]string, 256)
	for i := range srcs {
		srcs[i] = machines[i].String()
	}
	if err := l.time("classad.parse", "us", 2000, nil, func(i int) error {
		ad, err := classad.Parse(srcs[i%len(srcs)])
		sink = ad
		return err
	}); err != nil {
		return err
	}
	if err := l.time("classad.unparse", "us", 2000, nil, func(i int) error {
		sink = machines[i%len(srcs)].String()
		return nil
	}); err != nil {
		return err
	}
	// Job x machine pairs from the pool.10k ad set; none matches, as in
	// the workload, where the evaluator's work is refusing.
	return l.time("classad.match", "us", 4000, nil, func(i int) error {
		sink = classad.Match(jobs[i%len(jobs)], machines[i%len(machines)])
		return nil
	})
}

func (l *rungs) wireRungs() error {
	machines := l.machines
	var wire int
	n := 0
	if err := l.time("protocol.codec", "us", 2000, nil, func(i int) error {
		var buf bytes.Buffer
		if err := protocol.Write(&buf, &protocol.Envelope{Type: protocol.TypeAdvertise,
			Ad: protocol.EncodeAd(machines[i%256]), Lifetime: adLifetime}); err != nil {
			return err
		}
		wire += buf.Len()
		n++
		env, err := protocol.Read(bufio.NewReader(&buf))
		if err != nil {
			return err
		}
		ad, err := protocol.DecodeAd(env.Ad)
		sink = ad
		return err
	}); err != nil {
		return err
	}
	l.m["protocol.bytes_per_ad"] = Metric{Value: float64(wire) / float64(n), Unit: "B", Samples: n}

	// One dial and one envelope echoed on loopback: the transport cost
	// of each of a match's four hops.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if env, err := protocol.Read(bufio.NewReader(conn)); err == nil {
				_ = protocol.Write(conn, env) // the client's Read reports a failed echo
			}
			conn.Close()
		}
	}()
	defer func() {
		ln.Close()
		<-served
	}()
	ping := &protocol.Envelope{Type: protocol.TypeAck, Name: "ping"}
	return l.time("netx.roundtrip", "us", 2000, nil, func(int) error {
		conn, err := netx.DefaultDialer.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := protocol.Write(conn, ping); err != nil {
			return err
		}
		_, err = protocol.Read(bufio.NewReader(conn))
		return err
	})
}

// collectorRungs time the in-memory store's insert and read paths on a
// 2,000-ad store, the ingest workloads' size.
func (l *rungs) collectorRungs() error {
	g, machines := l.g, l.machines
	ads := machines[:min(2000, len(machines))]
	st := collector.New(nil)
	for _, ad := range ads {
		if err := st.Update(ad, adLifetime); err != nil {
			return err
		}
	}
	current := append([]*classad.Ad(nil), ads...)
	const calls = 2000
	next := make([]*classad.Ad, calls)
	for i := range next {
		next[i] = g.Churn(current[i%len(ads)])
	}
	if err := l.time("collector.update", "us", calls, nil, func(i int) error {
		current[i%len(ads)] = next[i]
		return st.Update(next[i], adLifetime)
	}); err != nil {
		return err
	}
	if err := l.time("collector.heartbeat", "us", calls, nil, func(i int) error {
		return st.Update(current[i%len(ads)], adLifetime)
	}); err != nil {
		return err
	}
	type delta struct {
		name    string
		changes *classad.Ad
		removed []string
	}
	deltas := make([]delta, calls)
	for i := range deltas {
		k := i % len(ads)
		changed := g.Churn(current[k])
		name, err := collector.NameOf(changed)
		if err != nil {
			return err
		}
		deltas[i].name = name
		deltas[i].changes, deltas[i].removed = collector.DiffAds(current[k], changed)
		current[k] = changed
	}
	if err := l.time("collector.delta", "us", calls, nil, func(i int) error {
		d := deltas[i]
		base := st.Seq(d.name)
		return st.ApplyDelta(d.name, base, base+1, d.changes, d.removed, adLifetime)
	}); err != nil {
		return err
	}
	return l.time("collector.query", "us", 300, nil, func(int) error {
		q, _ := g.Query()
		sink = st.Query(q)
		return nil
	})
}

// storeRungs time the WAL: one Append is one write and one fsync, on
// the filesystem the benchmark's out directory lives on.
func (l *rungs) storeRungs() error {
	machines := l.machines
	dir := filepath.Join(l.outDir, fmt.Sprintf("wal-ladder-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := store.Open(dir, nil)
	if err != nil {
		return err
	}
	defer log.Close()
	return l.time("store.append", "us", 1000, nil, func(i int) error {
		return log.Append([]byte(machines[i%256].String()))
	})
}

// matchmakerRungs time both negotiation engines on the pool.10k ad
// set with two requests nothing satisfies: a wake of the incremental
// engine after 1% of the offers changed, and a full-rebuild cycle.
func (l *rungs) matchmakerRungs() error {
	g, machines, jobs := l.g, l.machines, l.jobs
	mgr := pool.NewManager(pool.ManagerConfig{Matchmaker: matchmaker.Config{FairShare: true}})
	defer mgr.Close()
	st := mgr.Store()
	for _, ad := range append(append([]*classad.Ad(nil), machines...), jobs...) {
		if err := st.Update(ad, adLifetime); err != nil {
			return err
		}
	}
	el := mgr.StartEvents(0)
	stopped := false
	defer func() {
		if !stopped {
			el.Stop()
		}
	}()
	// delivered waits until the store's change feed has reached the
	// engine, then lets the pump finish the batch.
	delivered := func() {
		for !el.Engine().NeedsWake() {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(2 * time.Millisecond)
	}
	delivered()
	if res, _ := el.Wake(); len(res.Matches) != 0 {
		return fmt.Errorf("matchmaker: ladder requests matched %d offers, want none", len(res.Matches))
	}
	churn := len(machines) / 100
	at := 0
	if err := l.time("matchmaker.wake", "ms", 12, func(int) error {
		for k := 0; k < churn; k++ {
			i := at % len(machines)
			at++
			machines[i] = g.Churn(machines[i])
			if err := st.Update(machines[i], adLifetime); err != nil {
				return err
			}
		}
		delivered()
		return nil
	}, func(int) error {
		sink, _ = el.Wake()
		return nil
	}); err != nil {
		return err
	}
	el.Stop()
	stopped = true
	return l.time("matchmaker.rebuild", "ms", 6, nil, func(int) error {
		sink = mgr.RunCycle()
		return nil
	})
}

// claimRungs time the claiming protocol between one real CA daemon and
// one real RA daemon: a MATCH envelope sent to the CA's contact is
// acknowledged only after the CA's CLAIM to the RA got its verdict;
// then the release.
func (l *rungs) claimRungs() error {
	g := l.g
	plat := gen.Platforms[0]
	ra := pool.NewResourceDaemon(agent.NewResource(g.LiveMachine("ra.ladder.example", plat), nil), "127.0.0.1:1", adLifetime, nil)
	if _, err := ra.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer ra.Close()
	ca := pool.NewCustomerDaemon(agent.NewCustomer(gen.Owners[0], nil), "127.0.0.1:1", adLifetime, nil)
	if _, err := ca.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer ca.Close()

	// offer has the RA advertise (minting the ticket the claim must
	// present) and queues one job; match sends the MATCH.
	var ticket string
	var offer *classad.Ad
	var id int
	prepare := func(int) error {
		var err error
		if offer, err = ra.RA.Advertise(); err != nil {
			return err
		}
		offer.SetString(classad.AttrContact, ra.Contact())
		ticket, _ = offer.Eval(classad.AttrTicket).StringVal()
		id = ca.CA.Submit(g.Job(plat, false), 0).ID
		return nil
	}
	match := func(int) error {
		conn, err := netx.DefaultDialer.Dial(ca.Contact())
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := protocol.Write(conn, &protocol.Envelope{Type: protocol.TypeMatch,
			PeerAd: protocol.EncodeAd(offer), Ticket: ticket}); err != nil {
			return err
		}
		reply, err := protocol.Read(bufio.NewReader(conn))
		if err == nil && !reply.Accepted {
			err = fmt.Errorf("claim refused: %s %s", reply.Type, reply.Reason)
		}
		return err
	}
	release := func(int) error { return ca.Complete(id) }
	// The RA holds one claim at a time, so each rung's untimed part
	// does the other rung's call.
	if err := l.time("pool.notify_claim", "ms", 500, func(i int) error {
		if i > 0 {
			if err := release(i); err != nil {
				return err
			}
		}
		return prepare(i)
	}, match); err != nil {
		return err
	}
	return l.time("pool.release", "ms", 500, func(i int) error {
		if i == 0 {
			return nil // the last notify_claim call's claim is still held
		}
		if err := prepare(i); err != nil {
			return err
		}
		return match(i)
	}, release)
}
