// Package pool wires the framework's components into a running pool:
// a Manager (collector + negotiator, the paper's "pool manager"),
// ResourceDaemon (an RA with a TCP claiming endpoint), and
// CustomerDaemon (a CA that receives match notifications and runs the
// claiming protocol). Together they execute the paper's Figure 3:
//
//	(1) RAs and CAs advertise to the matchmaker;
//	(2) the matchmaker runs the matchmaking algorithm;
//	(3) both matched parties are notified and receive each other's
//	    ads (the CA also receiving the RA's authorization ticket);
//	(4) the CA claims the RA directly, the matchmaker uninvolved.
//
// Periodic activities (advertising, negotiation cycles) are explicit
// methods so tests and simulations control time; the daemon binaries
// drive them with tickers.
package pool

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"

	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Manager is the pool manager: it owns the collector store and runs
// negotiation cycles over it. It retains no state the pool could not
// give back — the paper's stateless-matchmaker property: the
// negotiation engine is a view over the store, so a crashed manager is
// replaced by constructing a new one against an empty store and
// letting the agents' periodic advertisements refill it.
type Manager struct {
	store  *collector.Store
	server *collector.Server
	local  *localPool
	neg    *negotiator
	logf   func(string, ...any)

	// HA participation: when haName is set the manager's co-located
	// negotiator acquires the leadership lease from its own store
	// before each cycle and stamps the lease epoch into MATCH
	// notifications, so it coexists safely with standby
	// NegotiatorDaemons pointed at the same collector.
	haName   string
	leaseTTL int64
}

// ManagerConfig tunes a Manager.
type ManagerConfig struct {
	// Env supplies time; nil for the process default.
	Env *classad.Env
	// Matchmaker tunes the negotiation algorithm.
	Matchmaker matchmaker.Config
	// Logf receives diagnostics; nil discards them.
	Logf func(string, ...any)
	// UsageFile, when set, persists the fair-share accounting table
	// there: loaded at construction, saved after every cycle. Match
	// state itself is never persisted — the matchmaker stays
	// stateless — but fairness is advisory history worth keeping.
	UsageFile string
	// History, when set, receives one classad per successful match
	// notification — an append-only accounting log. Everything in
	// the system is a classad, including its own records (paper §4),
	// so the log is queryable with the same one-way matching the
	// status tools use (cmd/chistory).
	History io.Writer
	// Dialer bounds MATCH notification dials; nil selects
	// netx.DefaultDialer.
	Dialer *netx.Dialer
	// NotifyRetry is the backoff policy for notification transport
	// failures; the zero value selects the netx defaults. Redelivered
	// MATCH envelopes are harmless: the CA no-ops when the job is no
	// longer idle, the RA's copy is advisory.
	NotifyRetry netx.RetryPolicy
	// Obs, when set, instruments the manager and everything it owns
	// (collector store and server, matchmaker and engine): per-cycle
	// histograms (pool_cycle_seconds, pool_cycle_requests,
	// pool_cycle_matches), notification failures
	// (pool_notify_errors_total), and the trace events that carry each
	// cycle's ID across daemons.
	Obs *obs.Obs
	// Store, when set, is a pre-opened advertisement store — typically
	// collector.OpenDurable, so ads, expiry deadlines and the
	// leadership lease survive manager restarts — that the manager
	// adopts (and closes) instead of creating a fresh in-memory one.
	Store *collector.Store
	// Ledger, when set, backs the fair-share table with a durable
	// usage ledger (matchmaker.OpenUsageLedger): every charge is
	// journaled as it lands, superseding the per-cycle UsageFile save.
	// The manager adopts and closes it.
	Ledger *matchmaker.UsageLedger
	// HAName, when set, enrolls the manager's negotiator half in
	// leader election under this identity: each cycle first acquires
	// (or renews) the leadership lease and stamps its epoch into MATCH
	// notifications; a cycle without the lease is a standby no-op.
	// Leave empty for the classic single-negotiator pool.
	HAName string
	// LeaseTTL is the leadership lease duration in pool-clock seconds
	// (0 selects collector.DefaultLeaseTTL). Only meaningful with
	// HAName.
	LeaseTTL int64
}

// NewManager builds a pool manager.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Matchmaker.Env == nil {
		cfg.Matchmaker.Env = cfg.Env
	}
	store := cfg.Store
	if store == nil {
		store = collector.New(cfg.Env)
	}
	local := &localPool{store: store}
	neg := newNegotiator("manager", "negotiator@pool", local, cfg.Matchmaker, cfg.Ledger)
	neg.env = cfg.Env
	neg.logf = cfg.Logf
	neg.usageFile = cfg.UsageFile
	neg.history = cfg.History
	neg.notifyRetry = cfg.NotifyRetry
	if cfg.Dialer != nil {
		neg.dialer = cfg.Dialer
	}
	m := &Manager{
		store:    store,
		local:    local,
		neg:      neg,
		logf:     cfg.Logf,
		haName:   cfg.HAName,
		leaseTTL: cfg.LeaseTTL,
	}
	if cfg.Obs != nil {
		neg.instrument(cfg.Obs)
		reg := cfg.Obs.Registry()
		store.Instrument(reg)
		if m.haName != "" {
			reg.GaugeFunc("negotiator_leader_epoch", func() float64 {
				_, epoch := neg.leadership()
				return float64(epoch)
			})
		}
		cfg.Obs.Handle("/daemons", func(map[string][]string) (any, error) {
			return m.store.DaemonHealth(), nil
		})
	}
	if neg.usageFile != "" && neg.ledger == nil {
		if err := neg.mm.Usage().Load(neg.usageFile); err != nil {
			m.logf("pool: usage history %s unreadable, starting fresh: %v", neg.usageFile, err)
		}
	}
	return m
}

// Usage exposes the fair-share accounting table.
func (m *Manager) Usage() *matchmaker.PriorityTable { return m.neg.mm.Usage() }

// Listen starts the collector endpoint on addr and returns the bound
// address that agents should advertise to.
func (m *Manager) Listen(addr string) (string, error) {
	m.server = collector.NewServer(m.store, m.logf)
	if m.neg.obs != nil {
		m.server.Instrument(m.neg.obs)
	}
	return m.server.Listen(addr)
}

// Serve starts the collector endpoint on an existing listener (which
// chaos tests wrap in a netx.FaultListener) and returns its address.
func (m *Manager) Serve(ln net.Listener) string {
	m.server = collector.NewServer(m.store, m.logf)
	if m.neg.obs != nil {
		m.server.Instrument(m.neg.obs)
	}
	return m.server.Serve(ln)
}

// Obs exposes the manager's observability sinks (nil when the manager
// was built without ManagerConfig.Obs).
func (m *Manager) Obs() *obs.Obs { return m.neg.obs }

// Close shuts the collector endpoint down, drops the engine's
// subscription, and releases any adopted durable state (store and
// ledger).
func (m *Manager) Close() {
	if m.server != nil {
		m.server.Close()
	}
	m.local.close()
	if m.neg.ledger != nil {
		m.neg.ledger.Close()
	}
	m.store.Close()
}

// Store exposes the ad store for direct (in-process) advertising.
func (m *Manager) Store() *collector.Store { return m.store }

// Cycles reports how many negotiation cycles have run.
func (m *Manager) Cycles() int {
	m.neg.mu.Lock()
	defer m.neg.mu.Unlock()
	return m.neg.cycles
}

// RunCycle executes one negotiation cycle now — timer mode is the
// caller's ticker around it. Every ad stored before the call is
// negotiated by it: the cycle drains the store's change feed itself.
// It may run beside an EventLoop; cycles are serialised.
func (m *Manager) RunCycle() CycleResult {
	res, _ := m.cycle()
	return res
}

// cycle runs the driver over the manager's own store and, as the
// process that hosts the collector, adds the collector's health ad to
// the self-ads the cycle published.
func (m *Manager) cycle() (CycleResult, matchmaker.WakeStats) {
	res, stats := m.neg.cycle(m.haName, m.leaseTTL, true)
	if !res.Standby && m.neg.obs != nil {
		name := m.haName
		if name == "" {
			name = "pool"
		}
		ad := DaemonAd("collector", name, m.neg.obs)
		if logStats, ok := m.store.LogStats(); ok {
			ad.SetInt("WALGeneration", int64(logStats.Gen))
		}
		if err := m.store.Update(ad, daemonAdLifetime); err != nil {
			m.logf("pool: publishing collector self-ad: %v", err)
		}
	}
	return res, stats
}

// sendToContact delivers one envelope to the ad's Contact address on a
// connection from the dialer's cache, with bounded connect and I/O
// deadlines, and returns the acknowledging reply. An idempotent
// envelope (MATCH) that finds its cached connection dead is replayed
// at once on a new one; PREEMPT and JOB_DONE are not.
func sendToContact(d *netx.Dialer, ad *classad.Ad, env *protocol.Envelope) (*protocol.Envelope, error) {
	contact, ok := ad.Eval(classad.AttrContact).StringVal()
	if !ok || contact == "" {
		// No retry can conjure a contact address.
		return nil, netx.Permanent(errors.New("ad has no Contact address"))
	}
	if d == nil {
		d = netx.DefaultDialer
	}
	var reply *protocol.Envelope
	err := d.Do(contact, 0, protocol.Idempotent(env.Type), func(c *netx.Conn) error {
		var err error
		reply, err = protocol.Exchange(c, c.Reader(), env)
		return err
	})
	if err != nil {
		return nil, err
	}
	if reply.Type == protocol.TypeError {
		return nil, netx.Permanent(errors.New(reply.Reason))
	}
	return reply, nil
}

// quietReadError reports whether a handler read error is ordinary
// connection lifecycle (clean close, daemon shutdown, idle timeout)
// rather than a protocol problem worth logging.
func quietReadError(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, os.ErrDeadlineExceeded)
}

// connSet is a daemon's accepted connections. Clients keep their
// connections to a daemon in a cache between conversations
// (netx.Dialer.Do), so a handler spends most of its life blocked
// reading from an idle peer; close ends those reads at once instead of
// at the idle timeout.
type connSet struct {
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
}

// serve accepts on ln until it is closed, running handle on a goroutine
// of its own per connection. Both the loop and the handlers are
// registered with wg, whose Add for the loop is the caller's.
func (s *connSet) serve(ln net.Listener, wg *sync.WaitGroup, handle func(net.Conn)) {
	defer wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]bool)
		}
		s.conns[conn] = true
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// close closes every open connection and every one accepted later.
func (s *connSet) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
}
