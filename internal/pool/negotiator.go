package pool

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

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
// nothing needs to be reconciled except the accounting ledger, which
// ships between peers as a store.Log bundle.
//
// Each Tick the daemon requests the leadership lease from the
// collector. Holding it, the daemon runs the same negotiation cycle
// the combined Manager runs (driver.go) over a query snapshot of the
// pool, stamping its lease epoch into every MATCH; the CA-side fence
// (cadaemon.go) then rejects anything an already-deposed leader manages
// to send. Not holding it, the daemon pulls the leader's usage ledger
// from its state endpoint so a takeover starts warm.
type NegotiatorDaemon struct {
	// Name identifies this negotiator in leader election.
	Name string
	// PeerState, when set, is the base URL of the peer negotiator's
	// state endpoint (http://host:port); a standby pulls /state from
	// it each tick for warm handoff.
	PeerState string
	// Logf receives diagnostics; nil discards.
	Logf func(string, ...any)

	client *collector.Client
	neg    *negotiator

	mu      sync.Mutex
	httpSrv *http.Server
	httpLn  net.Listener
	// lastBundle is the most recently installed peer-state bundle,
	// kept to skip re-installing identical state on every heartbeat.
	lastBundle []byte
}

// NewNegotiatorDaemon builds a negotiator around a collector client
// and an optional durable usage ledger (nil keeps accounting in
// memory).
func NewNegotiatorDaemon(name string, client *collector.Client, ledger *matchmaker.UsageLedger, mmCfg matchmaker.Config) *NegotiatorDaemon {
	d := &NegotiatorDaemon{
		Name:   name,
		Logf:   func(string, ...any) {},
		client: client,
	}
	pool := &remotePool{client: client, deltas: collector.NewDeltaAdvertiser(client)}
	d.neg = newNegotiator("negotiator", "negotiator/"+name, pool, mmCfg, ledger)
	// Logf is a public field callers set after construction.
	d.neg.logf = func(format string, args ...any) { d.Logf(format, args...) }
	return d
}

// ConfigureNetwork sets the dialer and retry policy for notifications
// and collector traffic.
func (d *NegotiatorDaemon) ConfigureNetwork(dialer *netx.Dialer, retry netx.RetryPolicy) {
	if dialer == nil {
		dialer = netx.DefaultDialer
	}
	d.neg.dialer = dialer
	d.neg.notifyRetry = retry
	d.client.Dialer = dialer
	d.client.Retry = retry
}

// Instrument routes negotiator activity into o: the cycle driver's
// metrics (negotiator.instrument) plus the current leadership epoch
// (negotiator_leader_epoch gauge; 0 while standby).
func (d *NegotiatorDaemon) Instrument(o *obs.Obs) {
	d.neg.instrument(o)
	o.Registry().GaugeFunc("negotiator_leader_epoch", func() float64 {
		if leader, epoch := d.neg.leadership(); leader {
			return float64(epoch)
		}
		return 0
	})
}

// Leader reports whether the daemon held the lease at its last tick,
// and under which epoch.
func (d *NegotiatorDaemon) Leader() (bool, uint64) { return d.neg.leadership() }

// Usage exposes the fair-share table (ledger-backed when a ledger was
// supplied).
func (d *NegotiatorDaemon) Usage() *matchmaker.PriorityTable { return d.neg.mm.Usage() }

// Tick runs one heartbeat: acquire or renew the lease, then either
// negotiate (leader) or sync state from the leader (standby). A leader
// whose collector reports the pool unchanged since its last cycle —
// and whose last cycle left nothing to retry — skips the negotiation
// (CycleResult.Skipped) unless force is set; callers force every few
// heartbeats as the safety net, the remote analogue of the in-process
// fallback rebuild. The caller drives Tick on the pool's negotiation
// period — and should do so at least a few times per lease TTL so
// renewal outpaces expiry.
func (d *NegotiatorDaemon) Tick(force bool) CycleResult {
	res, _ := d.neg.cycle(d.Name, force)
	if res.Standby {
		d.syncFromPeer()
	}
	return res
}

// ServeState starts the warm-handoff endpoint on ln: GET /state
// returns the usage ledger as a store.Log bundle that a standby
// installs with UsageLedger.Install. Returns the bound address.
func (d *NegotiatorDaemon) ServeState(ln net.Listener) string {
	mux := http.NewServeMux()
	mux.HandleFunc("/state", func(w http.ResponseWriter, r *http.Request) {
		if d.neg.ledger == nil {
			http.Error(w, "no ledger", http.StatusNotFound)
			return
		}
		bundle, err := d.neg.ledger.Ship()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(bundle)
	})
	srv := &http.Server{Handler: mux}
	d.mu.Lock()
	d.httpSrv, d.httpLn = srv, ln
	d.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String()
}

// syncFromPeer pulls the leader's ledger bundle and installs it, so
// this standby's accounting is warm when it takes over. Best-effort:
// an unreachable peer (it may just have died — that is why we are
// about to take over) leaves the local ledger as is.
func (d *NegotiatorDaemon) syncFromPeer() {
	if d.PeerState == "" || d.neg.ledger == nil {
		return
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(d.PeerState + "/state")
	if err != nil {
		d.Logf("negotiator %s: peer state: %v", d.Name, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.Logf("negotiator %s: peer state: HTTP %d", d.Name, resp.StatusCode)
		return
	}
	bundle, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		d.Logf("negotiator %s: peer state read: %v", d.Name, err)
		return
	}
	// Installing writes a fresh log generation; skip it when the leader
	// shipped the same bundle as last heartbeat (an idle pool), so a
	// standby does not churn a snapshot per poll.
	d.mu.Lock()
	same := bytes.Equal(bundle, d.lastBundle)
	d.mu.Unlock()
	if same {
		return
	}
	if err := d.neg.ledger.Install(bundle); err != nil {
		d.Logf("negotiator %s: installing peer state: %v", d.Name, err)
		return
	}
	d.mu.Lock()
	d.lastBundle = bundle
	d.mu.Unlock()
}

// Cycles reports how many heartbeats this daemon has run.
func (d *NegotiatorDaemon) Cycles() int {
	d.neg.mu.Lock()
	defer d.neg.mu.Unlock()
	return d.neg.cycles
}

// Close stops the state endpoint and releases the ledger.
func (d *NegotiatorDaemon) Close() {
	d.mu.Lock()
	srv, ln := d.httpSrv, d.httpLn
	d.httpSrv, d.httpLn = nil, nil
	d.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if ln != nil {
		ln.Close()
	}
	if d.neg.ledger != nil {
		d.neg.ledger.Close()
	}
}

// String renders leadership state for logs and cstatus.
func (d *NegotiatorDaemon) String() string {
	n := d.neg
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leader {
		return fmt.Sprintf("%s: leader (epoch %d, %d cycles)", d.Name, n.epoch, n.cycles)
	}
	return fmt.Sprintf("%s: standby (last seen epoch %d)", d.Name, n.lastSeen)
}
