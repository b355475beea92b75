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
	store       *collector.Store
	server      *collector.Server
	local       *localPool
	*negotiator // promotes Leader, Cycles, Usage, Engine

	// Hooks seed the negotiator's model-checker mutants; zero in production.
	Hooks Hooks

	// HA participation: when haName is set the manager's co-located
	// negotiator acquires the leadership lease from its own store
	// before each cycle and stamps the lease epoch into MATCH
	// notifications, so it coexists safely with standby
	// NegotiatorDaemons pointed at the same collector.
	haName string
}

// ManagerConfig tunes a Manager.
type ManagerConfig struct {
	// Env supplies time; nil for the process default.
	Env *classad.Env
	// Matchmaker tunes the negotiation algorithm.
	Matchmaker matchmaker.Config
	// Logf receives diagnostics; nil discards them.
	Logf func(string, ...any)
	// History, when set, receives one classad per successful match
	// notification — an append-only accounting log. Everything in
	// the system is a classad, including its own records (paper §4),
	// so the log is queryable with the same one-way matching the
	// status tools use (cmd/chistory).
	History io.Writer
	// Notifier takes each match's MATCH envelopes from the cycle; nil
	// selects Sender{}, which sends them at once.
	Notifier Notifier
	// Obs, when set, instruments the manager and everything it owns
	// (collector store and server, matchmaker and engine): per-cycle
	// histograms (pool_cycle_seconds, pool_cycle_requests,
	// pool_cycle_matches), notification failures
	// (pool_notify_errors_total), a wake record per cycle, and the
	// notify span each MATCH adds to its job's trace.
	Obs *obs.Obs
	// Store, when set, is a pre-opened advertisement store — typically
	// collector.OpenDurable, so ads, expiry deadlines and the
	// leadership lease survive manager restarts — that the manager
	// adopts (and closes) instead of creating a fresh in-memory one.
	Store *collector.Store
	// HAName, when set, enrolls the manager's negotiator half in
	// leader election under this identity: each cycle first acquires
	// (or renews) the leadership lease and stamps its epoch into MATCH
	// notifications; a cycle without the lease is a standby no-op.
	// Leave empty for the classic single-negotiator pool.
	HAName string
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
	// The Negotiator ad is named as a NegotiatorDaemon names its own, so
	// managers enrolled under distinct HA names publish distinct ads.
	adName := "negotiator@pool"
	if cfg.HAName != "" {
		adName = "negotiator/" + cfg.HAName
	}
	neg := newNegotiator("manager", adName, local, cfg.Env, cfg.Matchmaker)
	neg.logf = cfg.Logf
	neg.history = cfg.History
	if cfg.Notifier != nil {
		neg.notifier = cfg.Notifier
	}
	m := &Manager{
		store:      store,
		local:      local,
		negotiator: neg,
		haName:     cfg.HAName,
	}
	neg.hooks = &m.Hooks
	if cfg.Obs != nil {
		neg.instrument(cfg.Obs)
		reg := cfg.Obs.Registry()
		store.Instrument(reg)
		if m.haName != "" {
			reg.GaugeFunc("negotiator_leader_epoch", func() float64 {
				_, epoch := neg.Leader()
				return float64(epoch)
			})
		}
		cfg.Obs.Handle("/daemons", func(map[string][]string) (any, error) {
			return m.store.DaemonHealth(), nil
		})
	}
	return m
}

// Listen starts the collector endpoint on addr and returns the bound
// address that agents should advertise to.
func (m *Manager) Listen(addr string) (string, error) {
	m.server = collector.NewServer(m.store, m.logf)
	if m.negotiator.obs != nil {
		m.server.Instrument(m.negotiator.obs)
	}
	return m.server.Listen(addr)
}

// Serve starts the collector endpoint on an existing listener (which
// chaos tests wrap in a netx.FaultListener) and returns its address.
func (m *Manager) Serve(ln net.Listener) string {
	m.server = collector.NewServer(m.store, m.logf)
	if m.negotiator.obs != nil {
		m.server.Instrument(m.negotiator.obs)
	}
	return m.server.Serve(ln)
}

// Obs exposes the manager's observability sinks (nil when the manager
// was built without ManagerConfig.Obs).
func (m *Manager) Obs() *obs.Obs { return m.negotiator.obs }

// Close shuts the collector endpoint down, drops the engine's
// subscription, and closes the store (a durable one included).
func (m *Manager) Close() {
	if m.server != nil {
		m.server.Close()
	}
	m.local.close()
	m.store.Close()
}

// Store exposes the ad store for direct (in-process) advertising.
func (m *Manager) Store() *collector.Store { return m.store }

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
	res, stats := m.negotiator.cycle(m.haName, true)
	if !res.Standby && m.negotiator.obs != nil {
		name := m.haName
		if name == "" {
			name = "pool"
		}
		ad := DaemonAd("collector", name, m.negotiator.obs)
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
