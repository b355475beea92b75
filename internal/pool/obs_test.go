package pool

import (
	"encoding/json"
	"net/http"
	"net/url"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// scrape GETs one path from a live debug endpoint and decodes it —
// the acceptance path goes over real HTTP, exactly as an operator's
// curl would.
func scrape(t *testing.T, addr, path string, out any) {
	t.Helper()
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
}

// waitGaugeZero polls a metric gauge until it drains to zero; handler
// goroutines observe the peer's close a beat after the protocol
// exchange finishes.
func waitGaugeZero(t *testing.T, o *obs.Obs, name string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := o.Registry().Snapshot()
		if snap.Gauges[name] == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("gauge %s = %g, want 0 (leaked handler)", name, snap.Gauges[name])
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestObservabilityEndToEnd is the observability acceptance run: one
// fully instrumented pool executes a real match over sockets, the
// /metrics scrape shows nonzero collector, matchmaker, claim and netx
// activity, and the trace ID the SUBMIT ack returned correlates the
// manager, matchmaker, CA and RA records of the match.
func TestObservabilityEndToEnd(t *testing.T) {
	o := obs.New()
	netx.Instrument(o.Registry())
	t.Cleanup(func() { netx.Instrument(nil) })

	mgr := NewManager(ManagerConfig{Logf: t.Logf, Obs: o})
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)

	ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), addr, 0, t.Logf)
	ra.Instrument(o)
	if _, err := ra.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ra.Close)

	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), addr, 0, t.Logf)
	ca.Instrument(o)
	caAddr, err := ca.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)

	ds, err := o.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })

	// Submit as csubmit does: a SUBMIT envelope whose ack names the
	// job and returns the trace the CA minted for it.
	var ack *protocol.Envelope
	if err := netx.DefaultDialer.Do(caAddr, 0, false, func(c *netx.Conn) error {
		var err error
		ack, err = protocol.Exchange(c, c.Reader(), &protocol.Envelope{
			Type: protocol.TypeSubmit, Ad: protocol.EncodeAd(classad.Figure2()), Lifetime: 100,
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	trace := ack.Trace
	jobID, ok := jobIDOfName("raman", ack.Name)
	if ack.Type != protocol.TypeAck || trace == "" || !ok {
		t.Fatalf("submit ack = %+v, want a job name and a trace", ack)
	}
	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	res := mgr.RunCycle()
	if res.Notified != 1 {
		t.Fatalf("cycle = %+v", res)
	}
	if err := ca.Complete(jobID); err != nil {
		t.Fatal(err)
	}

	// The /metrics scrape: every layer must have registered activity.
	var snap obs.Snapshot
	scrape(t, ds.Addr(), "/metrics", &snap)
	for _, name := range []string{
		"collector_ads_stored_total", // advertising protocol
		"collector_advertise_total",  // collector server
		"matchmaker_matches_total",   // negotiation
		"pool_claim_attempts_total",  // CA claim lifecycle
		"pool_claims_ok_total",       //
		"pool_ra_claims_total",       // RA claiming protocol
		"pool_ra_claims_accepted_total",
		"pool_ra_releases_total",
		"netx_dials_total", // transport substrate
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	for _, name := range []string{
		"pool_cycle_seconds",
		"matchmaker_negotiate_seconds",
		"matchmaker_offers_scanned",
		"pool_claim_seconds",
	} {
		if snap.Histograms[name].Count <= 0 {
			t.Errorf("histogram %s count = %d, want > 0", name, snap.Histograms[name].Count)
		}
	}
	// Machine ad + negotiator self-ad, plus the four Daemon-type health
	// ads (collector, negotiator, CA, RA) behind absent-ad detection.
	if got := snap.Gauges["collector_ads"]; got != 6 {
		t.Errorf("collector_ads gauge = %g, want 6", got)
	}

	// The trace: the job's one ID stitches the match's story across
	// all four parties, spans and log entries alike.
	var recs []obs.Span
	scrape(t, ds.Addr(), "/trace?id="+url.QueryEscape(trace), &recs)
	got := make(map[string]bool)
	for _, r := range recs {
		if r.Trace != trace {
			t.Errorf("record %s/%s has trace %q, want %q", r.Src, r.Name, r.Trace, trace)
		}
		got[r.Src+"/"+r.Name] = true
	}
	for _, want := range []string{
		"manager/notify", "matchmaker/match", "ca/claim_ok", "ra/claim_accepted",
	} {
		if !got[want] {
			t.Errorf("no %s record under trace %s (records: %v)", want, trace, got)
		}
	}
	// The cycle itself is one wake record in the log ring, covering it.
	var wakes []obs.Span
	for _, r := range o.Events().Select("", 0) {
		if r.Name == "wake" {
			wakes = append(wakes, r)
		}
	}
	if len(wakes) != 1 {
		t.Fatalf("log ring holds %d wake records, want 1", len(wakes))
	}
	if w := wakes[0]; w.Src != "manager" || w.End.Before(w.Start) || w.Fields["matches"] != "1" || w.Fields["notified"] != "1" {
		t.Errorf("wake record = %+v, want the manager's one-match cycle", w)
	}

	// No handler goroutine outlives its connection: once the clients
	// drop the connections they cached, the gauges drain to zero.
	netx.DefaultDialer.CloseIdle()
	for _, g := range []string{"collector_handlers", "pool_ca_handlers", "pool_ra_handlers"} {
		waitGaugeZero(t, o, g)
	}
}

// TestDurabilityMetricsScraped is the durability acceptance run: an
// HA manager on a durable store executes a real match, and
// the /metrics scrape — over HTTP, as an operator's curl would —
// shows the WAL appending and fsyncing, a snapshot installing, the
// leadership epoch standing, a deposed-epoch MATCH fenced, and a
// standby negotiator's election counters registered.
func TestDurabilityMetricsScraped(t *testing.T) {
	dir := t.TempDir()
	o := obs.New()

	cstore, err := collector.OpenDurable(filepath.Join(dir, "collector"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(ManagerConfig{
		Logf: t.Logf, Obs: o, Store: cstore, HAName: "mgr",
	})
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)

	ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), addr, 0, t.Logf)
	if _, err := ra.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ra.Close)
	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), addr, 0, t.Logf)
	ca.Instrument(o)
	if err := ca.EnableJournal(filepath.Join(dir, "ca"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)

	ds, err := o.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })

	ca.CA.Submit(classad.Figure2(), 100)
	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	res := mgr.RunCycle()
	if res.Notified != 1 || res.Epoch != 1 {
		t.Fatalf("cycle = %+v", res)
	}
	// Force one snapshot generation so the install counter registers
	// activity without journaling hundreds of records.
	if err := cstore.Compact(); err != nil {
		t.Fatal(err)
	}
	// A MATCH from a long-deposed negotiator: first raise the CA's
	// high-water mark (the epoch-3 notification is acknowledged but
	// finds no idle job), then fence its epoch-2 straggler.
	machine := figure1Machine()
	target := classad.NewAd()
	target.SetString(classad.AttrContact, ca.Contact())
	for _, tc := range []struct {
		epoch   uint64
		wantErr bool
	}{{3, false}, {2, true}} {
		_, err := sendToContact(nil, target, &protocol.Envelope{
			Type: protocol.TypeMatch, PeerAd: protocol.EncodeAd(machine), Epoch: tc.epoch,
		})
		if (err != nil) != tc.wantErr {
			t.Fatalf("MATCH at epoch %d: err = %v, want error %v", tc.epoch, err, tc.wantErr)
		}
	}

	var snap obs.Snapshot
	scrape(t, ds.Addr(), "/metrics", &snap)
	for _, name := range []string{
		"store_wal_appends_total",       // journaled records
		"store_wal_bytes_total",         //
		"store_snapshot_installs_total", // the forced compaction
		"collector_lease_grants_total",  // the manager's own election
		"pool_fenced_matches_total",     // the deposed straggler
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if snap.Histograms["store_fsync_seconds"].Count <= 0 {
		t.Error("store_fsync_seconds histogram is empty: nothing was synced")
	}
	if got := snap.Gauges["negotiator_leader_epoch"]; got != 1 {
		t.Errorf("negotiator_leader_epoch = %g, want 1", got)
	}

	// A standby negotiator pointed at the same collector registers the
	// election metrics on its own endpoint.
	o2 := obs.New()
	negB := NewNegotiatorDaemon("nego-b", &collector.Client{Addr: addr}, matchmaker.Config{})
	negB.Instrument(o2)
	if res := negB.Tick(false); !res.Standby {
		t.Fatalf("standby tick against a leading manager = %+v", res)
	}
	ds2, err := o2.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds2.Close() })
	var snap2 obs.Snapshot
	scrape(t, ds2.Addr(), "/metrics", &snap2)
	if snap2.Counters["negotiator_standby_ticks_total"] != 1 {
		t.Errorf("negotiator_standby_ticks_total = %d, want 1", snap2.Counters["negotiator_standby_ticks_total"])
	}
	if _, ok := snap2.Counters["negotiator_failovers_total"]; !ok {
		t.Error("negotiator_failovers_total not registered")
	}
	if got := snap2.Gauges["negotiator_leader_epoch"]; got != 0 {
		t.Errorf("standby's negotiator_leader_epoch = %g, want 0", got)
	}
}

// TestTraceAndWhyAcceptance pins the PR's two headline debug surfaces
// over real HTTP, as `cstatus -trace` and `cstatus -why` consume them:
// /trace?id= returns the span tree of one submission covering at least
// four daemons (collector, matchmaker, manager, CA, RA), and
// /why?request= explains an unmatched request from the live rejection
// ledger. /daemons rounds it out with every daemon's self-ad health.
func TestTraceAndWhyAcceptance(t *testing.T) {
	o := obs.New()
	mgr := NewManager(ManagerConfig{Logf: t.Logf, Obs: o})
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)

	ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), addr, 0, t.Logf)
	ra.Instrument(o)
	if _, err := ra.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ra.Close)

	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), addr, 0, t.Logf)
	ca.Instrument(o)
	if _, err := ca.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)

	ds, err := o.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })

	// One matchable job and one that can never match.
	job := ca.CA.Submit(classad.Figure2(), 100)
	hog := classad.Figure2()
	if err := hog.SetExprString(classad.AttrConstraint, `other.Memory >= 1048576`); err != nil {
		t.Fatal(err)
	}
	hogTrace := classad.TraceOf(ca.CA.Submit(hog, 100).Ad)

	if err := ra.Advertise(); err != nil {
		t.Fatal(err)
	}
	if err := ca.AdvertiseIdle(); err != nil {
		t.Fatal(err)
	}
	res := mgr.RunCycle()
	if res.Notified != 1 {
		t.Fatalf("cycle = %+v, want one notified match", res)
	}

	// The span tree of the matched job's trace, scraped as the CLI
	// does. The submission happened in-process (no submit span), but
	// the trace must still cover collector storage, negotiation, the
	// manager's notification, the CA's claim and the RA's verdict.
	trace := classad.TraceOf(job.Ad)
	if trace == "" {
		t.Fatal("submitted job has no trace ID")
	}
	var spans []obs.Span
	scrape(t, ds.Addr(), "/trace?id="+url.QueryEscape(trace), &spans)
	srcs := make(map[string]bool)
	names := make(map[string]string)
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Errorf("span %s/%s carries trace %q, want %q", sp.Src, sp.Name, sp.Trace, trace)
		}
		if sp.End.Before(sp.Start) {
			t.Errorf("span %s/%s ends before it starts", sp.Src, sp.Name)
		}
		srcs[sp.Src] = true
		names[sp.Name] = sp.Src
	}
	if len(srcs) < 4 {
		t.Fatalf("trace covers %d daemons (%v), want >= 4 (spans: %+v)", len(srcs), srcs, spans)
	}
	for name, src := range map[string]string{
		"ad_stored": "collector", "negotiate": "matchmaker",
		"notify": "manager", "claim": "ca", "verdict": "ra",
	} {
		if names[name] != src {
			t.Errorf("no %s span from %s (got %v)", name, src, names)
		}
	}

	// The forensic explanation of the unmatched request, scraped live.
	var report matchmaker.Report
	scrape(t, ds.Addr(), "/why?request="+url.QueryEscape("raman/job2"), &report)
	if report.Matched || report.Trace == "" || report.Trace != hogTrace {
		t.Fatalf("report = %+v, want unmatched under trace %s", report, hogTrace)
	}
	if report.Reason == "" || len(report.Ledger) == 0 {
		t.Fatalf("report = %+v, want a reason and a per-offer ledger", report)
	}
	v := report.Ledger[0]
	if v.Offer == "" || v.Outcome == "" || v.Detail == "" {
		t.Fatalf("ledger entry = %+v, want offer, outcome and detail", v)
	}

	// The /why index lists every request with a retained report.
	var index struct {
		Requests []string `json:"requests"`
	}
	scrape(t, ds.Addr(), "/why", &index)
	if len(index.Requests) != 2 {
		t.Fatalf("/why index = %v, want both jobs", index.Requests)
	}

	// Daemon health from self-ads: the manager's collector and
	// negotiator halves, the CA and the RA, all current.
	var daemons []collector.DaemonStatus
	scrape(t, ds.Addr(), "/daemons", &daemons)
	kinds := make(map[string]string)
	for _, d := range daemons {
		kinds[d.Kind] = d.Status
	}
	for _, kind := range []string{"collector", "negotiator", "ca", "ra"} {
		if kinds[kind] != "ok" {
			t.Errorf("daemon kind %q status = %q, want ok (daemons: %+v)", kind, kinds[kind], daemons)
		}
	}
}
