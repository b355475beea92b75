package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/bench/gen"
	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/obs"
	"repro/internal/pool"
)

// spec is one workload: a pool size and a traffic mix. Every workload
// carries all three kinds of traffic — jobs, advertisements, status
// queries — so every end-to-end metric is defined on every workload;
// the proportions decide which layer dominates.
//
// Drivers advance in lock-step rounds. In a round each driver
//
//  1. on every jobEvery-th round, tops its customer's queue up to batch
//     jobs in flight (SUBMIT envelopes to the CA) and has the CA
//     advertise its idle jobs;
//  2. waits until they run — in timer mode the harness calls
//     Manager.RunCycle once per round between the two phases, in event
//     mode the manager's own EventLoop wakes on the advertisement;
//  3. completes each running job (RELEASE to the RA) and has its RA
//     re-advertise;
//  4. refreshes ads background machines through its DeltaAdvertiser;
//  5. on every queryEvery-th round, poses one status query.
type spec struct {
	name       string
	events     bool // event mode: StartEvents + EventLoop.Run; else timer mode
	durable    bool // collector.OpenDurable: the WAL fsync is on the advertise path
	background int  // machine ads with no daemon behind them
	live       int  // real ResourceDaemons
	batch      int  // jobs each customer keeps in flight
	jobEvery   int
	ads        int
	// identicalPct and fullPct split the refreshes: content-identical
	// heartbeat, full re-advertisement of a changed machine, and the
	// rest a small delta (two probe attributes).
	identicalPct, fullPct int
	queryEvery            int
	unindexable           bool // jobs carry one conjunct the offer index cannot decide
	warmRounds            int  // rounds run before the window, part of set-up
}

// BENCHMARK.json and README.md say why each workload exists. Sizes were
// adjusted until the traced pass showed the intended layer dominating;
// README.md records how.
var specs = []spec{
	{
		name: "pool.cycle",
		live: 64, background: 1900, batch: 32, jobEvery: 1, queryEvery: 1, warmRounds: 3,
	},
	{
		name: "pool.10k", events: true,
		live: 32, background: 10000, batch: 1, jobEvery: 1, ads: 2, queryEvery: 8, unindexable: true, warmRounds: 20,
	},
	{
		name: "ingest.heartbeat", events: true,
		live: 8, background: 2000, batch: 1, jobEvery: 4, ads: 32, identicalPct: 70, fullPct: 5, queryEvery: 4, warmRounds: 8,
	},
	{
		name: "collector.mixed", events: true, durable: true,
		live: 8, background: 2000, batch: 1, jobEvery: 2, ads: 32, identicalPct: 70, fullPct: 5, queryEvery: 1, warmRounds: 8,
	},
}

// tiny shrinks a workload for the smoke test.
func (sp spec) tiny() spec {
	sp.background /= 20
	sp.live = max(sp.live/4, 2*nDrivers)
	sp.batch = min(sp.batch, 2)
	sp.warmRounds = 2
	return sp
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// platforms is how many of gen.Platforms the live RAs are spread over.
// In timer mode it is all of them, a customer's jobs take them in turn,
// and both customers compete for every machine, so fair share
// arbitrates and a request has only its platform's few RAs to evaluate;
// lock-step rounds guarantee every RA is re-advertised before the next
// cycle. In event mode a customer's job may be matched while the
// other's is still completing, so there are two platforms, one per
// customer, and neither ever sees the other's momentarily stale RA ads.
func (sp spec) platforms() int {
	if sp.events {
		return nDrivers
	}
	return len(gen.Platforms)
}

// platform is what customer d's n-th job asks for.
func (sp spec) platform(d, n int) gen.Platform {
	if sp.events {
		return gen.Platforms[d]
	}
	return gen.Platforms[n%sp.platforms()]
}

type jobRef struct {
	id        int
	submitted time.Time
}

// driver is one closed-loop client: a customer with its CA daemon, one
// collector connection at a time, and a share of the background ads.
type driver struct {
	id      int
	r       *rig
	g       *gen.Gen
	ca      *pool.CustomerDaemon
	client  *collector.Client
	da      *collector.DeltaAdvertiser
	mine    []int // indices into rig.bg this driver refreshes, round-robin
	next    int
	jobs    int // submitted so far
	queries int
	pending []jobRef
	m       *samples
	tr      *tracer
	roundNo int    // the current round's number
	round   int    // the current round's span
	stuck   int    // waits for a match that timed out
	problem string // first correctness violation seen
}

func newDriver(r *rig, id int, seed int64, traced bool) (*driver, error) {
	owner := gen.Owners[id]
	d := &driver{
		id: id, r: r, m: newSamples(),
		// A stream of its own, so what one driver draws does not depend
		// on how the other's round went.
		g:      gen.New(seed*int64(nDrivers+1) + int64(id) + 1),
		client: &collector.Client{Addr: r.addr},
	}
	d.da = collector.NewDeltaAdvertiser(d.client)
	for i := id; i < len(r.bg); i += nDrivers {
		d.mine = append(d.mine, i)
	}
	d.ca = pool.NewCustomerDaemon(agent.NewCustomer(owner, nil), r.addr, adLifetime, nil)
	if traced {
		d.ca.Instrument(r.obs)
		d.tr = &tracer{driver: id, base: r.coord.base}
	}
	if _, err := d.ca.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return d, nil
}

// op counts one attempted operation and its failure, if any.
func (d *driver) op(what string, err error) bool {
	d.m.attempted++
	if err != nil {
		d.m.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: driver %d: %s: %v\n", d.r.spec.name, d.id, what, err)
		return false
	}
	return true
}

func (d *driver) violation(format string, args ...any) {
	if d.problem == "" {
		d.problem = fmt.Sprintf(format, args...)
	}
}

// submitPhase is step 1 of a round.
func (d *driver) submitPhase(round int) {
	sp := d.r.spec
	d.roundNo = round
	d.round = d.tr.begin(-1, "round", "")
	if round%sp.jobEvery != 0 {
		return
	}
	owner := gen.Owners[d.id]
	// Wakes left over from matches already seen running say nothing
	// about the jobs submitted now.
	for len(d.r.hist.sig[d.id]) > 0 {
		<-d.r.hist.sig[d.id]
	}
	for len(d.pending) < sp.batch {
		job := d.g.Job(sp.platform(d.id, d.jobs), sp.unindexable)
		d.jobs++
		s := d.tr.begin(d.round, "submit", "")
		t0 := time.Now()
		id, err := submit(d.ca.Contact(), owner, job)
		d.tr.end(s)
		if !d.op("submit", err) {
			break
		}
		if d.tr != nil {
			d.tr.spans[s].Key = fmt.Sprintf("%s/job%d", owner, id)
		}
		d.pending = append(d.pending, jobRef{id: id, submitted: t0})
	}
	s := d.tr.begin(d.round, "advertise_idle", owner)
	err := d.ca.AdvertiseIdle()
	d.tr.end(s)
	d.op("advertise idle jobs", err)
}

// runWait bounds how long a driver waits for one match in event mode.
const runWait = 5 * time.Second

// finishPhase is steps 2 to 5 of a round.
func (d *driver) finishPhase(round int) {
	sp := d.r.spec
	if sp.events && len(d.pending) > 0 {
		s := d.tr.begin(d.round, "wait_run", "")
		d.waitRunning()
		d.tr.end(s)
	}
	still := d.pending[:0]
	for _, p := range d.pending {
		if j, at, ok := d.started(p); ok {
			d.finishJob(p, j, at)
		} else {
			still = append(still, p) // re-advertised in the next job round
		}
	}
	d.pending = still

	for i := 0; i < sp.ads; i++ {
		d.refresh()
	}
	if round%sp.queryEvery == 0 {
		d.query()
	}
	d.tr.end(d.round)
}

// waitRunning blocks until every pending job runs, woken by History
// records. A record may leave the job idle: every event-mode wake
// notifies every live match again, so a match can be delivered twice,
// and the second delivery's claim fails on its spent ticket. That is
// the program's weak consistency at work, counted under
// pool.claims_rejected_share, not a failed operation. Only a job still
// idle after runWait is one: the customer then re-advertises, as its
// daemon's next heartbeat would.
func (d *driver) waitRunning() {
	deadline := time.NewTimer(runWait)
	defer deadline.Stop()
	for tries := 0; ; {
		waiting := 0
		for _, p := range d.pending {
			if _, _, started := d.started(p); !started {
				waiting++
			}
		}
		if waiting == 0 {
			return
		}
		select {
		case <-d.r.hist.sig[d.id]:
		case <-deadline.C:
			d.op("run", fmt.Errorf("%d jobs not matched within %v", waiting, runWait))
			d.stuck++
			if tries++; tries == 3 {
				return
			}
			d.op("advertise idle jobs", d.ca.AdvertiseIdle())
			deadline.Reset(runWait)
		}
	}
}

// started reports whether job p runs and the manager has logged the
// match that started it (the CA marks the job running just before the
// manager hears the verdict and writes the record).
func (d *driver) started(p jobRef) (j agent.Job, at time.Time, ok bool) {
	j, ok = d.ca.CA.Job(p.id)
	if !ok || j.Status != agent.JobRunning {
		return j, at, false
	}
	at, ok = d.r.hist.matchedAt(j.Resource, p.submitted)
	return j, at, ok
}

// finishJob records a running job's latency, completes it and has its
// RA re-advertise.
func (d *driver) finishJob(p jobRef, j agent.Job, at time.Time) {
	name := fmt.Sprintf("%s/job%d", gen.Owners[d.id], p.id)
	ra := d.r.ras[j.Resource]
	if ra == nil {
		d.violation("%s runs on %q, which is not a live RA", name, j.Resource)
		d.op("run", errors.New("not a live RA"))
		return
	}
	d.op("run", nil)
	d.sample("submit_to_run", at.Sub(p.submitted))
	// The RA itself must hold exactly this job: had two jobs claimed it
	// at once, one of them would find the other here.
	if c, held := ra.daemon.RA.CurrentClaim(); !held || c.Customer != gen.Owners[d.id] {
		d.violation("%s runs on %s, whose claim is held by %q", name, j.Resource, c.Customer)
	} else if id, _ := agent.JobIDOf(c.Job); id != p.id {
		d.violation("%s runs on %s, which holds job %d", name, j.Resource, id)
	}

	s := d.tr.begin(d.round, "complete", name)
	err := d.ca.Complete(p.id)
	d.tr.end(s)
	d.op("complete", err)

	s = d.tr.begin(d.round, "advertise", j.Resource)
	t0 := time.Now()
	err = ra.daemon.Advertise()
	d.tr.end(s)
	if d.op("advertise", err) {
		d.sample("advertise", time.Since(t0))
	}
}

// refresh re-advertises the driver's next background machine.
func (d *driver) refresh() {
	sp := d.r.spec
	b := d.r.bg[d.mine[d.next%len(d.mine)]]
	d.next++
	ad := b.last
	switch x := d.g.Intn(100); {
	case x < sp.identicalPct:
	case x < sp.identicalPct+sp.fullPct:
		ad = d.g.BackgroundMachine(b.name)
		d.da.Forget(b.name) // a full ADVERTISE, not a delta against the old ad
	default:
		ad = d.g.Churn(b.last)
	}
	s := d.tr.begin(d.round, "advertise", b.name)
	t0 := time.Now()
	err := d.da.Advertise(ad, adLifetime)
	d.tr.end(s)
	if d.op("advertise", err) {
		d.sample("advertise", time.Since(t0))
		b.last = ad
	}
}

// query poses one status query, alternating whole ads and a projection.
func (d *driver) query() {
	q, proj := d.g.Query()
	d.queries++
	if d.queries%2 == 1 {
		proj = nil
	}
	s := d.tr.begin(d.round, "query", "")
	t0 := time.Now()
	var ads []*classad.Ad
	var err error
	if proj == nil {
		ads, err = d.client.Query(q)
	} else {
		ads, err = d.client.QueryProject(q, proj)
	}
	d.tr.end(s)
	if !d.op("query", err) {
		return
	}
	d.sample("query", time.Since(t0))
	for _, ad := range ads {
		if proj == nil && !classad.MatchesQuery(q, ad, nil) {
			d.violation("query %s returned %s", q, ad)
		}
		if proj != nil && ad.Len() > len(proj) {
			d.violation("projection %v returned %s", proj, ad)
		}
	}
}

// sample records one completed operation's latency under the current
// round. A job that ran counts as one submit_to_run sample, an
// acknowledged advertisement as one advertise sample: the rates are
// counts of these.
func (d *driver) sample(op string, took time.Duration) {
	d.m.lat[op] = append(d.m.lat[op], sample{d.roundNo, float64(took) / float64(time.Millisecond)})
}

// round runs one lock-step round of the whole rig.
func (r *rig) round(n int) {
	r.parallel(func(d *driver) { d.submitPhase(n) })
	if !r.spec.events && n%r.spec.jobEvery == 0 {
		s := r.coord.begin(-1, "cycle", "")
		r.mgr.RunCycle()
		r.coord.end(s)
	}
	r.parallel(func(d *driver) { d.finishPhase(n) })
}

// drain runs job-less rounds until no job is in flight.
func (r *rig) drain(n int) {
	saved := r.spec.batch
	r.spec.batch = 0
	defer func() { r.spec.batch = saved }()
	for i := 0; i < 10; i++ {
		inflight := 0
		for _, d := range r.drivers {
			inflight += len(d.pending)
		}
		if inflight == 0 {
			return
		}
		// The next job round at or after the window's last round, so
		// that nothing a drain round does is taken for the window's.
		r.round((n + i + r.spec.jobEvery - 1) / r.spec.jobEvery * r.spec.jobEvery)
	}
}

// verify checks the program's outputs after the window; it returns
// what is wrong, or nothing.
func (r *rig) verify() []string {
	var wrong []string
	bad := func(format string, args ...any) {
		if len(wrong) < 10 {
			wrong = append(wrong, fmt.Sprintf(format, args...))
		}
	}
	for _, d := range r.drivers {
		if d.problem != "" {
			bad("%s", d.problem)
		}
		// Every submitted job completed.
		counts := d.ca.CA.Counts()
		if n := len(d.ca.CA.Snapshot()); counts[agent.JobCompleted] != n {
			bad("%s: %d of %d jobs completed (%v)", gen.Owners[d.id], counts[agent.JobCompleted], n, counts)
		}
	}
	// Every match the manager logged passes classad.Match, evaluated
	// here on the ads the generator made: an oracle independent of the
	// negotiation engines.
	r.hist.mu.Lock()
	records, unparsed := r.hist.records, r.hist.bad
	r.hist.mu.Unlock()
	for _, line := range unparsed {
		bad("unparsable History record %q", line)
	}
	for _, rec := range records {
		ra := r.ras[rec.offer]
		var job agent.Job
		var ok bool
		for _, d := range r.drivers {
			if owner := gen.Owners[d.id]; owner == rec.customer {
				var id int
				if _, err := fmt.Sscanf(rec.request, owner+"/job%d", &id); err == nil {
					job, ok = d.ca.CA.Job(id)
				}
			}
		}
		switch {
		case ra == nil:
			bad("History: %s matched to %s, which is not a live RA", rec.request, rec.offer)
		case !ok:
			bad("History: unknown request %s", rec.request)
		case !classad.Match(job.Ad, ra.base).Matched:
			bad("History: %s x %s does not pass classad.Match", rec.request, rec.offer)
		}
	}
	// The store holds every machine, and each holds the last ad sent.
	st := r.mgr.Store()
	if got, want := len(st.SelectType("Machine")), len(r.bg)+len(r.ras); got != want {
		bad("store holds %d machine ads, want %d", got, want)
	}
	for i := 0; i < len(r.bg); i += 37 {
		b := r.bg[i]
		if got, ok := st.Lookup(b.name); !ok || !got.Equal(b.last) {
			bad("store's %s is not the last ad sent:\n got %s\nwant %s", b.name, got, b.last)
		}
	}
	if err := st.PersistErr(); err != nil {
		bad("store: %v", err)
	}
	return wrong
}

// verifyReopened checks durability after tearDown: the store reopened
// from its directory alone holds the same machine ads.
func (r *rig) verifyReopened() []string {
	st, err := collector.OpenDurable(r.walDir, nil, nil)
	if err != nil {
		return []string{"reopen: " + err.Error()}
	}
	defer st.Close()
	var wrong []string
	if got, want := len(st.SelectType("Machine")), len(r.bg)+len(r.ras); got != want {
		wrong = append(wrong, fmt.Sprintf("reopened store holds %d machine ads, want %d", got, want))
	}
	for _, b := range r.bg {
		if got, ok := st.Lookup(b.name); !ok || !got.Equal(b.last) {
			wrong = append(wrong, fmt.Sprintf("reopened store's %s is not the last ad sent", b.name))
			if len(wrong) >= 10 {
				break
			}
		}
	}
	return wrong
}

// result is what one run of one workload produced.
type result struct {
	Metrics   map[string]Metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Wrong     []string          `json:"wrong,omitempty"`
	// Tables are the traced run's self-time tables.
	Harness []selfRow `json:"harness_self,omitempty"`
	Program []selfRow `json:"program_self,omitempty"`
}

// setUps is how many times a run sets the pool up; setup_s is the
// median. The last pool is the one measured.
const setUps = 3

// runWorkload sets the pool up, measures one window and checks the
// outputs. Untraced it reports the end-to-end metrics, traced the
// per-workload share of the per-layer metrics.
func runWorkload(sp spec, seed int64, window time.Duration, outDir string, traced bool) (*result, error) {
	var r *rig
	var setupS []float64
	times := setUps
	if traced {
		times = 1 // setup_s is an untraced metric, and instrumented set-up is slow
	}
	for i := 0; i < times; i++ {
		if r != nil {
			r.tearDown()
		}
		t0 := time.Now()
		var err error
		if r, err = setUp(sp, seed, outDir, traced); err != nil {
			return nil, err
		}
		for n := 0; n < sp.warmRounds; n++ {
			r.round(n)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	for _, d := range r.drivers {
		d.m = newSamples()
		if traced {
			d.tr.spans = nil
		}
	}
	var syncs0, bytes0 int64
	if r.fs != nil {
		syncs0, bytes0 = r.fs.syncs.Load(), r.fs.bytes.Load()
	}
	if traced {
		r.coord.spans = nil
	}

	start := time.Now()
	n := sp.warmRounds
	var durs []time.Duration
	for time.Since(start) < window {
		t0 := time.Now()
		r.round(n)
		n++
		durs = append(durs, time.Since(t0))
		if stuck := r.drivers[0].stuck + r.drivers[1].stuck; stuck >= 3 {
			r.tearDown()
			return nil, fmt.Errorf("%s: gave up after %d waits for a match timed out", sp.name, stuck)
		}
	}
	r.drain(n)

	total := newSamples()
	for _, d := range r.drivers {
		total.merge(d.m)
	}
	res := &result{Metrics: map[string]Metric{}, Attempted: total.attempted, Failed: total.failed}
	res.Wrong = r.verify()
	var spans []obs.Span
	if traced {
		spans = r.obs.Spans().Select("", 0)
	}
	r.tearDown()
	if sp.durable {
		res.Wrong = append(res.Wrong, r.verifyReopened()...)
		if err := os.RemoveAll(r.walDir); err != nil {
			return nil, err
		}
	}
	period := sp.jobEvery * sp.queryEvery / gcd(sp.jobEvery, sp.queryEvery)
	w := newWindow(sp.warmRounds, durs, period, total.lat)
	put := func(name string, v float64, unit string, n int) {
		res.Metrics[name] = Metric{Value: v, Unit: unit, Samples: n}
	}
	// p50 and rate report an operation over the quiet rounds; p99 is
	// about the stalls too and takes the whole window.
	p50 := func(name, op string) {
		xs := w.values(op, true)
		if len(xs) == 0 {
			res.Wrong = append(res.Wrong, "no "+op+" samples in the quiet rounds")
			xs = []float64{0}
		}
		put(name, median(xs), "ms", len(xs))
	}
	rate := func(name, op string) {
		n := len(w.values(op, true))
		put(name, float64(n)/w.dur.Seconds(), "1/s", n)
	}
	p99 := func(name, op string) {
		xs := append(w.values(op, false), 0)
		put(name, quantile(xs, 0.99), "ms", len(xs)-1)
	}
	if !traced {
		rate("jobs_per_s", "submit_to_run")
		p50("submit_to_run_p50_ms", "submit_to_run")
		rate("ads_per_s", "advertise")
		p50("advertise_p50_ms", "advertise")
		put("setup_s", median(setupS), "s", len(setupS))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		put("peak_rss_mb", rss, "MB", 1)
		return res, nil
	}

	rate("trace.jobs_per_s", "submit_to_run")
	rate("trace.ads_per_s", "advertise")
	p99("submit_to_run_p99_ms", "submit_to_run")
	p99("advertise_p99_ms", "advertise")
	p50("query_p50_ms", "query")
	p99("query_p99_ms", "query")
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ads := float64(len(total.lat["advertise"]))
	var fsyncs, walBytes float64
	if r.fs != nil {
		fsyncs, walBytes = float64(r.fs.syncs.Load()-syncs0), float64(r.fs.bytes.Load()-bytes0)
	}
	put("store.fsyncs_per_ad", ratio(fsyncs, ads), "count", int(ads))
	put("store.bytes_per_ad", ratio(walBytes, ads), "B", int(ads))

	tracers := []*tracer{r.coord}
	for _, d := range r.drivers {
		tracers = append(tracers, d.tr)
	}
	if err := writeTrace(outDir, sp.name, tracers); err != nil {
		return nil, err
	}
	res.Harness = harnessSelfTimes(tracers)
	var traces int
	res.Program, traces = programSelfTimes(spans)
	put("trace.spans_retained", float64(len(spans)), "count", 1)
	put("trace.spans_dropped", float64(r.obs.Spans().Dropped()), "count", 1)
	for _, row := range res.Program {
		put("hop."+row.Name+"_ms", ratio(row.SelfMs, float64(traces)), "ms", traces)
		if row.Name == "negotiate" {
			put("hop.negotiate_share", row.Share, "ratio", traces)
		}
	}
	reg := r.obs.Registry()
	matches := float64(reg.Counter("matchmaker_matches_total").Value())
	evals := reg.Histogram("matchmaker_offers_scanned", obs.CountBuckets).Sum()
	pruned := float64(reg.Counter("matchmaker_index_pruned_total").Value())
	cands := float64(reg.Counter("matchmaker_index_candidates_total").Value())
	var claimsOK, claimsRejected int
	for _, d := range r.drivers {
		ok, rejected := d.ca.ClaimStats()
		claimsOK += ok
		claimsRejected += rejected
	}
	put("pool.claims_rejected_share", ratio(float64(claimsRejected), float64(claimsOK+claimsRejected)), "ratio", claimsOK+claimsRejected)
	put("matchmaker.evals_per_match", ratio(evals, matches), "count", int(matches))
	put("matchmaker.index_pruned_share", ratio(pruned, pruned+cands), "ratio", int(pruned+cands))
	return res, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (res *result) print(w *strings.Builder, names []string) {
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
}
