package pool

import (
	"fmt"

	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/obs"
)

// NegotiatorDaemon is a standalone negotiator speaking the wire
// protocol to a (possibly remote) collector — the half of the paper's
// pool manager that runs the matchmaking algorithm, split out so a
// pool can run two of them for availability. The paper's argument
// that matchmaker failure is tolerable ("the information maintained
// by the manager is all soft state", §4.3) makes failover simple:
// nothing needs to be reconciled. Even fair-share usage lives in the
// collector, in the Negotiator ad each cycle publishes, and a new
// leader loads it from there (negotiator.loadUsage).
//
// Each Tick the daemon requests the leadership lease from the
// collector. Holding it, the daemon runs the same negotiation cycle
// the combined Manager runs (driver.go) over a query snapshot of the
// pool, stamping its lease epoch into every MATCH; the CA-side fence
// (cadaemon.go) then rejects anything an already-deposed leader manages
// to send. Not holding it, the daemon does nothing but wait.
type NegotiatorDaemon struct {
	// Name identifies this negotiator in leader election.
	Name string
	// Logf receives diagnostics; nil discards.
	Logf func(string, ...any)

	client      *collector.Client
	*negotiator // promotes Leader, Cycles, Usage, Engine
}

// NewNegotiatorDaemon builds a negotiator around a collector client.
func NewNegotiatorDaemon(name string, client *collector.Client, mmCfg matchmaker.Config) *NegotiatorDaemon {
	d := &NegotiatorDaemon{
		Name:   name,
		Logf:   func(string, ...any) {},
		client: client,
	}
	pool := &remotePool{client: client, deltas: collector.NewDeltaAdvertiser(client)}
	d.negotiator = newNegotiator("negotiator", "negotiator/"+name, pool, mmCfg.Env, mmCfg)
	// Logf is a public field callers set after construction.
	d.negotiator.logf = func(format string, args ...any) { d.Logf(format, args...) }
	return d
}

// ConfigureNetwork sets the dialer (nil selects netx.DefaultDialer) and
// retry policy for notifications and collector traffic.
func (d *NegotiatorDaemon) ConfigureNetwork(dialer *netx.Dialer, retry netx.RetryPolicy) {
	d.negotiator.notifier = Sender{Dialer: dialer, Retry: retry}
	d.client.Dialer = dialer
	d.client.Retry = retry
}

// Instrument routes negotiator activity into o: the cycle driver's
// metrics (negotiator.instrument) plus the current leadership epoch
// (negotiator_leader_epoch gauge; 0 while standby).
func (d *NegotiatorDaemon) Instrument(o *obs.Obs) {
	d.negotiator.instrument(o)
	o.Registry().GaugeFunc("negotiator_leader_epoch", func() float64 {
		if leader, epoch := d.Leader(); leader {
			return float64(epoch)
		}
		return 0
	})
}

// Tick runs one heartbeat: acquire or renew the lease, then negotiate
// if it was granted. A leader whose collector reports the pool
// unchanged since its last cycle — and whose last cycle left nothing
// to retry — skips the negotiation (CycleResult.Skipped) unless force
// is set; callers force every few heartbeats as the safety net, the
// remote analogue of the in-process fallback rebuild. The caller
// drives Tick on the pool's negotiation period — and should do so at
// least a few times per lease TTL so renewal outpaces expiry.
func (d *NegotiatorDaemon) Tick(force bool) CycleResult {
	res, _ := d.negotiator.cycle(d.Name, force)
	return res
}

// String renders leadership state for logs and cstatus.
func (d *NegotiatorDaemon) String() string {
	n := d.negotiator
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leader {
		return fmt.Sprintf("%s: leader (epoch %d, %d cycles)", d.Name, n.epoch, n.cycles)
	}
	return fmt.Sprintf("%s: standby (last seen epoch %d)", d.Name, n.lastSeen)
}
