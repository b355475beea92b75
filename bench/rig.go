package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/bench/gen"
	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/protocol"
)

// adLifetime keeps every advertisement alive for the whole run: expiry
// is not what the benchmark measures.
const adLifetime = 3600

// nDrivers is the number of closed-loop driver goroutines, one client
// connection at a time each, and of customers: min(nproc, 4) on the
// 2-core reference host. It is fixed so that results from hosts with
// more cores stay comparable.
const nDrivers = 2

// liveRA is one real ResourceDaemon and the owner-supplied ad it was
// built from (the oracle's copy: Advertise adds only probes, Contact
// and the ticket).
type liveRA struct {
	daemon *pool.ResourceDaemon
	base   *classad.Ad
}

// bgAd is one background machine: the last ad a driver sent under its
// name is what the collector must hold at the end.
type bgAd struct {
	name string
	last *classad.Ad
}

// matchRec is one record the manager wrote to its History log.
type matchRec struct {
	customer, request, offer string
}

// history is the manager's History writer. The manager writes one
// match classad per notified match, after the customer's claim verdict
// came back, so a record's arrival is the moment a job started running
// and no polling is needed.
type history struct {
	mu      sync.Mutex
	at      map[string][]time.Time // offer name -> arrivals of its records
	records []matchRec
	bad     []string // records that did not parse
	// sig wakes the driver that owns the record's customer; the buffer
	// holds a whole round's matches, and a full buffer only drops a wake
	// the driver does not need (it re-checks every pending job per wake).
	sig [nDrivers]chan struct{}
}

func newHistory() *history {
	h := &history{at: make(map[string][]time.Time)}
	for i := range h.sig {
		h.sig[i] = make(chan struct{}, 256)
	}
	return h
}

func (h *history) Write(p []byte) (int, error) {
	now := time.Now() //determguard:ok the harness timestamps the record; the History writer is reachable from replayed code only through io.Writer
	ad, err := classad.Parse(string(p))
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.bad = append(h.bad, string(p))
		return len(p), nil
	}
	rec := matchRec{}
	rec.customer, _ = ad.Eval("Customer").StringVal()
	rec.request, _ = ad.Eval("RequestName").StringVal()
	rec.offer, _ = ad.Eval("OfferName").StringVal()
	h.records = append(h.records, rec)
	h.at[rec.offer] = append(h.at[rec.offer], now)
	for i, owner := range gen.Owners {
		if owner == rec.customer {
			select {
			case h.sig[i] <- struct{}{}:
			default:
			}
		}
	}
	return len(p), nil
}

// matchedAt returns when the first record naming offer arrived since
// the job was submitted; a later one is a repeated notification.
func (h *history) matchedAt(offer string, since time.Time) (time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ts := h.at[offer]
	i := len(ts)
	for i > 0 && !ts[i-1].Before(since) {
		i--
	}
	if i == len(ts) {
		return time.Time{}, false
	}
	return ts[i], true
}

// rig is one pool in this process: the real manager (collector server
// and negotiator), resource daemons and customer daemons on loopback
// TCP, plus the drivers that load them.
type rig struct {
	spec    spec
	mgr     *pool.Manager
	addr    string
	el      *pool.EventLoop
	stopEl  func()
	hist    *history
	ras     map[string]*liveRA
	bg      []*bgAd
	drivers [nDrivers]*driver
	obs     *obs.Obs    // nil unless traced
	fs      *countingFS // nil unless durable
	walDir  string
	coord   *tracer // the coordinator's spans (the negotiation cycle); nil unless traced
}

// setUp starts the daemons and seeds the pool: every live RA and every
// background machine is advertised over TCP. Inputs come from seed
// alone.
func setUp(sp spec, seed int64, outDir string, traced bool) (*rig, error) {
	r := &rig{spec: sp, hist: newHistory(), ras: make(map[string]*liveRA)}
	g := gen.New(seed)
	cfg := pool.ManagerConfig{
		Matchmaker: matchmaker.Config{FairShare: true},
		History:    r.hist,
	}
	if traced {
		r.obs = obs.New()
		cfg.Obs = r.obs
		r.coord = &tracer{driver: -1, base: time.Now()}
	}
	if sp.durable {
		r.walDir = filepath.Join(outDir, fmt.Sprintf("wal-%s-%d", sp.name, os.Getpid()))
		if err := os.RemoveAll(r.walDir); err != nil {
			return nil, err
		}
		r.fs = &countingFS{}
		st, err := collector.OpenDurable(r.walDir, nil, r.fs)
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	r.mgr = pool.NewManager(cfg)
	addr, err := r.mgr.Listen("127.0.0.1:0")
	if err != nil {
		r.mgr.Close()
		return nil, err
	}
	r.addr = addr
	if sp.events {
		r.el = r.mgr.StartEvents(0)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.el.Run(ctx)
		}()
		r.stopEl = func() {
			cancel() // Run stops the loop when its context ends
			<-done
		}
	}

	for i := 0; i < sp.live; i++ {
		plat := gen.Platforms[i%sp.platforms()]
		name := fmt.Sprintf("ra%03d.%s.pool.example", i, plat.Arch)
		base := g.LiveMachine(name, plat)
		d := pool.NewResourceDaemon(agent.NewResource(base, nil), addr, adLifetime, nil)
		if traced {
			d.Instrument(r.obs)
		}
		if _, err := d.Listen("127.0.0.1:0"); err != nil {
			r.tearDown()
			return nil, err
		}
		r.ras[name] = &liveRA{daemon: d, base: base}
		if err := d.Advertise(); err != nil {
			r.tearDown()
			return nil, err
		}
	}
	for i := 0; i < sp.background; i++ {
		name := fmt.Sprintf("bg%05d.pool.example", i)
		r.bg = append(r.bg, &bgAd{name: name, last: g.BackgroundMachine(name)})
	}
	for i := range r.drivers {
		d, err := newDriver(r, i, seed, traced)
		if err != nil {
			r.tearDown()
			return nil, err
		}
		r.drivers[i] = d
	}
	// An instrumented collector lints every full advertisement against
	// the whole store, which makes seeding a traced pool quadratic. The
	// traced pass is about the window, not the set-up, so a traced pool
	// is seeded through a second, uninstrumented collector.Server on the
	// same store; the drivers then move to the manager's endpoint.
	seedAddr := addr
	if traced {
		side := collector.NewServer(r.mgr.Store(), nil)
		if seedAddr, err = side.Listen("127.0.0.1:0"); err != nil {
			r.tearDown()
			return nil, err
		}
		defer side.Close()
	}
	errs := make([]error, nDrivers)
	r.parallel(func(d *driver) {
		d.client.Addr = seedAddr
		for _, i := range d.mine {
			if err := d.da.Advertise(r.bg[i].last, adLifetime); err != nil {
				errs[d.id] = fmt.Errorf("seeding %s: %w", r.bg[i].name, err)
				return
			}
		}
		d.client.Addr = addr
	})
	for _, err := range errs {
		if err != nil {
			r.tearDown()
			return nil, err
		}
	}
	return r, nil
}

// parallel runs f once per driver, concurrently, and waits for all.
func (r *rig) parallel(f func(*driver)) {
	var wg sync.WaitGroup
	for _, d := range r.drivers {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			f(d)
		}(d)
	}
	wg.Wait()
}

// tearDown stops every daemon and waits for their goroutines. The
// durable store's directory is left for the reopen check.
func (r *rig) tearDown() {
	if r.stopEl != nil {
		r.stopEl()
	}
	for _, d := range r.drivers {
		if d != nil {
			d.ca.Close()
		}
	}
	for _, ra := range r.ras {
		ra.daemon.Close()
	}
	r.mgr.Close()
}

// submit delivers one job ad to a customer daemon in a SUBMIT envelope,
// as csubmit does, and returns the queue id from the ack.
func submit(contact, owner string, job *classad.Ad) (int, error) {
	conn, err := netx.DefaultDialer.Dial(contact)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := protocol.Write(conn, &protocol.Envelope{Type: protocol.TypeSubmit, Ad: protocol.EncodeAd(job)}); err != nil {
		return 0, err
	}
	reply, err := protocol.Read(bufio.NewReader(conn))
	if err != nil {
		return 0, err
	}
	if reply.Type != protocol.TypeAck {
		return 0, fmt.Errorf("submit: %s %s", reply.Type, reply.Reason)
	}
	var id int
	if _, err := fmt.Sscanf(reply.Name, owner+"/job%d", &id); err != nil {
		return 0, fmt.Errorf("submit: ack names %q: %w", reply.Name, err)
	}
	return id, nil
}
