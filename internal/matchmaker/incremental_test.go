package matchmaker

// Differential tests for the negotiation engine: a long seeded delta
// stream is driven through a real collector store and its change feed
// into an Incremental engine, and at every quiescent point the
// engine's assignment, fair-share charges, and forensic verdicts are
// compared against the naive oracle (oracle_test.go) over the same
// live ads. The same harness, with Hooks.DropDirtyNotification,
// Hooks.StaleOrderOnInsert, Hooks.StopBeforeTies or
// Hooks.SkipRankListUpdate on, must mechanically rediscover the
// mutant.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/obs"
)

// diffWorld drives one seeded operation stream against a collector
// store, the incremental engine subscribed to it, and a shadow usage
// table that records only claim-acknowledgment charges.
type diffWorld struct {
	t     *testing.T
	rng   *rand.Rand
	clock int64
	env   *classad.Env

	store *collector.Store
	sub   *collector.Subscription
	eng   *Incremental

	// shadow receives exactly the claim-ack charges the harness issues;
	// the engine's table must never drift from it (Recompute must not
	// charge).
	shadow *PriorityTable

	machines map[string]*classad.Ad // live machine name -> last advertised ad
	jobs     map[string]bool        // live job names
	owners   []string
	step     int
	wakes    int
	// ixBuilds counts wakes that (re)built the offer index in one batch:
	// the first, and every compaction past the dead-slot threshold.
	ixBuilds int

	// diffs accumulates every divergence found at a quiescent point;
	// the healthy run asserts it stays empty, the mutant run asserts
	// it does not.
	diffs []string
}

func newDiffWorld(t *testing.T, seed int64) *diffWorld {
	w := &diffWorld{
		t:        t,
		rng:      rand.New(rand.NewSource(seed)),
		clock:    1_000_000,
		machines: make(map[string]*classad.Ad),
		jobs:     make(map[string]bool),
		shadow:   NewPriorityTable(),
	}
	w.env = &classad.Env{
		Now:  func() int64 { return w.clock },
		Rand: func() float64 { return 0.25 },
	}
	w.store = collector.New(w.env)
	w.sub = w.store.Subscribe()
	// Half-life off: decay folds elapsed time multiplicatively, so two
	// tables that decay at different call points drift by an ulp even
	// when fed identical charges. The differential compares exact
	// charge accounting; decay itself is priority_test.go's business.
	w.shadow.SetHalfLife(0)
	m := New(Config{Env: w.env, FairShare: true})
	m.Instrument(obs.New())
	w.eng = NewIncremental(m)
	w.eng.InstrumentEngine(obs.New())
	w.eng.Matchmaker().Usage().SetHalfLife(0)
	for i := 0; i < 5; i++ {
		w.owners = append(w.owners, fmt.Sprintf("user%d", i))
	}
	w.shadow.Advance(float64(w.clock))
	w.eng.Matchmaker().Usage().Advance(float64(w.clock))
	return w
}

func (w *diffWorld) genMachine(name string) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Type", "Machine")
	ad.SetString("Name", name)
	ad.SetString("Arch", []string{"INTEL", "SPARC"}[w.rng.Intn(2)])
	ad.SetInt("Memory", int64(32<<w.rng.Intn(4)))
	ad.SetInt("Mips", int64(50+w.rng.Intn(400)))
	state := "Unclaimed"
	if w.rng.Intn(10) == 0 {
		state = "Claimed"
	}
	ad.SetString("State", state)
	if w.rng.Intn(4) == 0 {
		if err := ad.SetExprString("Constraint", fmt.Sprintf("other.Prio >= %d", w.rng.Intn(5))); err != nil {
			w.t.Fatal(err)
		}
	} else {
		ad.Set("Constraint", classad.Lit(classad.Bool(true)))
	}
	if err := ad.SetExprString("Rank", "other.Prio"); err != nil {
		w.t.Fatal(err)
	}
	return ad
}

func (w *diffWorld) genJob(name string) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Type", "Job")
	ad.SetString("Name", name)
	ad.SetString("Owner", w.owners[w.rng.Intn(len(w.owners))])
	ad.SetInt("Prio", int64(w.rng.Intn(10)))
	arch := []string{"INTEL", "SPARC"}[w.rng.Intn(2)]
	if err := ad.SetExprString("Constraint",
		fmt.Sprintf("other.Arch == %q && other.Memory >= %d", arch, int64(32<<w.rng.Intn(4)))); err != nil {
		w.t.Fatal(err)
	}
	if w.rng.Intn(2) == 0 {
		if err := ad.SetExprString("Rank", "other.Mips"); err != nil {
			w.t.Fatal(err)
		}
	}
	return ad
}

// twinNames are machines advertised with identical content (genTwin),
// so every request ranks them equally and only key order separates
// them. They sit before the first ordinary key, after the last, and
// between two neighbours, in pairs: their arrivals and departures are
// membership churn at the extremes of the engine's ordered offer list
// and between equal-rank twins, so index slots drift from positions.
var twinNames = []string{"!a", "!b", "mach-10+a", "mach-10+b", "~y", "~z"}

// twinRanks are the offer Ranks twins advertise, one per stretch of
// twinEpoch steps: absent or a literal (the scan knows the twin's key
// and may pass it over untried), or reading other. (it is tried).
var twinRanks = []string{"", "3", "other.Prio", `other.Owner == "user0" ? 9 : 1`}

const twinEpoch = 40

// flipNames are keys re-advertised now as a job, now as a machine.
var flipNames = []string{"flip-0", "flip-1"}

func (w *diffWorld) genTwin(name string) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Type", "Machine")
	ad.SetString("Name", name)
	ad.SetString("Arch", "INTEL")
	ad.SetInt("Memory", 256)
	ad.SetInt("Mips", 200)
	ad.SetString("State", "Unclaimed")
	ad.Set("Constraint", classad.Lit(classad.Bool(true)))
	if rank := twinRanks[w.step/twinEpoch%len(twinRanks)]; rank != "" {
		if err := ad.SetExprString("Rank", rank); err != nil {
			w.t.Fatal(err)
		}
	}
	return ad
}

// op applies one random pool mutation. Machine names come from a pool
// of 38 and job names from a pool of 102, so forensics never evicts
// (the report store holds 256 distinct request names).
func (w *diffWorld) op() {
	switch n := w.rng.Intn(116); {
	case n < 25: // advertise (new or changed) machine
		name := fmt.Sprintf("mach-%02d", w.rng.Intn(30))
		ad := w.genMachine(name)
		if err := w.store.Update(ad, int64(120+w.rng.Intn(600))); err != nil {
			w.t.Fatal(err)
		}
		w.machines[name] = ad
	case n < 32: // content-identical heartbeat: lifetime renewal only
		names := sortedKeys(w.machines)
		if len(names) == 0 {
			return
		}
		name := names[w.rng.Intn(len(names))]
		if err := w.store.Update(w.machines[name], int64(120+w.rng.Intn(600))); err != nil {
			w.t.Fatal(err)
		}
	case n < 40: // withdraw machine
		names := sortedKeys(w.machines)
		if len(names) == 0 {
			return
		}
		name := names[w.rng.Intn(len(names))]
		w.store.Invalidate(name)
		delete(w.machines, name)
	case n < 62: // submit (or resubmit) job
		name := fmt.Sprintf("job-%02d", w.rng.Intn(100))
		if err := w.store.Update(w.genJob(name), int64(300+w.rng.Intn(600))); err != nil {
			w.t.Fatal(err)
		}
		w.jobs[name] = true
	case n < 70: // remove job
		names := sortedKeys(w.jobs)
		if len(names) == 0 {
			return
		}
		name := names[w.rng.Intn(len(names))]
		w.store.Invalidate(name)
		delete(w.jobs, name)
	case n < 80: // time passes; ads may expire, usage decays
		w.clock += int64(1 + w.rng.Intn(120))
		w.shadow.Advance(float64(w.clock))
		w.eng.Matchmaker().Usage().Advance(float64(w.clock))
		w.store.Prune()
		for name := range w.machines {
			if _, ok := w.store.Lookup(name); !ok {
				delete(w.machines, name)
			}
		}
		for name := range w.jobs {
			if _, ok := w.store.Lookup(name); !ok {
				delete(w.jobs, name)
			}
		}
	case n < 90: // claim acknowledged: charge the owner, retire the job
		ms := w.eng.Matches()
		if len(ms) == 0 {
			return
		}
		m := ms[w.rng.Intn(len(ms))]
		own := OwnerOf(m.Request)
		w.eng.Matchmaker().Usage().Record(own, 1)
		w.shadow.Record(own, 1)
		name := adName(m.Request)
		w.store.Invalidate(name)
		delete(w.jobs, classad.Fold(name))
	case n < 100: // flip a machine's claimed state, all else unchanged
		names := sortedKeys(w.machines)
		if len(names) == 0 {
			return
		}
		name := names[w.rng.Intn(len(names))]
		ad := classad.MustParse(w.machines[name].String())
		state := "Unclaimed"
		if s, _ := ad.Eval("State").StringVal(); s == "Unclaimed" {
			state = "Claimed"
		}
		ad.SetString("State", state)
		if err := w.store.Update(ad, int64(120+w.rng.Intn(600))); err != nil {
			w.t.Fatal(err)
		}
		w.machines[name] = ad
	case n < 108: // a twin arrives or leaves
		name := twinNames[w.rng.Intn(len(twinNames))]
		if _, live := w.machines[name]; live {
			w.store.Invalidate(name)
			delete(w.machines, name)
			return
		}
		ad := w.genTwin(name)
		if err := w.store.Update(ad, int64(120+w.rng.Intn(600))); err != nil {
			w.t.Fatal(err)
		}
		w.machines[name] = ad
	case n < 116: // one key flips between request and offer
		name := flipNames[w.rng.Intn(len(flipNames))]
		delete(w.machines, name)
		delete(w.jobs, name)
		ad := w.genJob(name)
		if w.rng.Intn(2) == 0 {
			ad = w.genMachine(name)
			w.machines[name] = ad
		} else {
			w.jobs[name] = true
		}
		if err := w.store.Update(ad, int64(300+w.rng.Intn(600))); err != nil {
			w.t.Fatal(err)
		}
	}
}

// testDelta converts one store change the way the pool driver does:
// expiry and withdrawal remove, Type "Job" is a request, anything else
// an offer (this stream carries no self-ads).
func testDelta(d collector.Delta) AdDelta {
	switch {
	case d.Kind == collector.DeltaExpired || d.Kind == collector.DeltaInvalidated:
		return AdDelta{Kind: AdRemove, Key: d.Name}
	case isJob(d.Ad):
		return AdDelta{Kind: AdRequest, Key: d.Name, Ad: d.Ad}
	}
	return AdDelta{Kind: AdOffer, Key: d.Name, Ad: d.Ad}
}

func isJob(ad *classad.Ad) bool {
	typ, _ := ad.Eval(classad.AttrType).StringVal()
	return classad.Fold(typ) == "job"
}

// quiesce drains the change feed into the engine, wakes it if (and
// only if) there is work, and runs the differential comparison.
func (w *diffWorld) quiesce() {
	w.store.Prune()
	for _, d := range w.sub.Drain() {
		w.eng.Apply(testDelta(d))
	}
	if w.eng.NeedsWake() {
		ix := w.eng.ix
		w.eng.Recompute()
		w.wakes++
		if w.eng.ix != ix {
			w.ixBuilds++
		}
	}
	w.compare()
}

func (w *diffWorld) diff(format string, args ...any) {
	w.diffs = append(w.diffs, fmt.Sprintf("step %d: ", w.step)+fmt.Sprintf(format, args...))
}

// compare checks the engine against the oracle's from-scratch
// negotiation over the store's live ads: same assignment, same
// forensic verdicts, and a usage table that has accumulated only the
// claim-ack charges.
func (w *diffWorld) compare() {
	em := map[string]string{}
	for _, m := range w.eng.Matches() {
		em[classad.Fold(adName(m.Request))] = classad.Fold(adName(m.Offer))
	}

	var reqs, offs []*classad.Ad
	for _, ad := range w.store.All() {
		if isJob(ad) {
			reqs = append(reqs, ad)
		} else {
			offs = append(offs, ad)
		}
	}
	ref := naiveNegotiate(Config{Env: w.env, FairShare: true}, false, w.eng.Matchmaker().Usage(), reqs, offs)
	rm := map[string]string{}
	for _, o := range ref {
		if o.Offer != nil {
			rm[classad.Fold(adName(o.Request))] = classad.Fold(adName(o.Offer))
		}
	}

	for r, o := range rm {
		if got, ok := em[r]; !ok {
			w.diff("oracle matches %s -> %s; engine left it unmatched", r, o)
		} else if got != o {
			w.diff("oracle matches %s -> %s; engine matched %s", r, o, got)
		}
	}
	for r, o := range em {
		if _, ok := rm[r]; !ok {
			w.diff("engine matches %s -> %s; oracle left it unmatched", r, o)
		}
	}

	engF := w.eng.Matchmaker().Forensics()
	for _, o := range ref {
		name := adName(o.Request)
		er, ok := engF.Lookup(name)
		if !ok {
			w.diff("engine has no forensic report for live request %s", name)
			continue
		}
		matched, offer, claimed := o.Offer != nil, "", false
		if matched {
			offer, claimed = adName(o.Offer), offerClaimed(o.Offer)
		}
		if er.Matched != matched || er.Offer != offer || er.Reason != o.Reason || er.Claimed != claimed {
			w.diff("forensics for %s: engine {matched=%v offer=%q reason=%q claimed=%v}, oracle {matched=%v offer=%q reason=%q claimed=%v}",
				name, er.Matched, er.Offer, er.Reason, er.Claimed, matched, offer, o.Reason, claimed)
		}
	}

	for _, own := range w.owners {
		if got, want := w.eng.Matchmaker().Usage().Effective(own), w.shadow.Effective(own); got != want {
			w.diff("usage for %s: engine table %g, claim-ack shadow %g (a wake charged usage)", own, got, want)
		}
	}
}

// run drives steps operations with a quiescent-point comparison after
// every one.
func (w *diffWorld) run(steps int) {
	for i := 0; i < steps; i++ {
		w.step = i
		w.op()
		w.quiesce()
	}
}

func diffSteps(t *testing.T) int {
	if testing.Short() {
		return 300 // enough to cross the index-rebuild threshold
	}
	return 600
}

// TestIncrementalDifferential is the correctness contract: after any
// delta stream, the engine's assignment, charges, and forensic verdicts
// equal the oracle's from-scratch negotiation at every quiescent point.
func TestIncrementalDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := newDiffWorld(t, seed)
			w.run(diffSteps(t))
			if len(w.diffs) > 0 {
				n := len(w.diffs)
				if n > 5 {
					w.diffs = w.diffs[:5]
				}
				t.Fatalf("%d divergence(s) from the oracle; first few:\n%s", n, joinLines(w.diffs))
			}
			if w.wakes == 0 {
				t.Fatalf("stream produced no wakes; differential exercised nothing")
			}
			// Every content change retires an index slot, so the run
			// must have crossed the compaction threshold (dead slots
			// outnumbering live ones) and renumbered every slot.
			if w.ixBuilds < 2 {
				t.Fatalf("offer index built %d time(s); the run never crossed the rebuild threshold", w.ixBuilds)
			}
			// Jobs with Rank other.Mips walk its rank list; jobs without
			// a Rank take the rank pass.
			if m := w.eng.Matchmaker(); m.mRankWalks.Value() == 0 || m.mRankPasses.Value() == 0 {
				t.Fatalf("%d scans walked a rank list and %d took the rank pass; both must occur",
					m.mRankWalks.Value(), m.mRankPasses.Value())
			}
		})
	}
}

// TestIncrementalDifferentialRediscoversDroppedWake seeds the
// DropDirtyNotification mutant — content changes for known offers are
// silently discarded — and demands the differential suite catch it.
func TestIncrementalDifferentialRediscoversDroppedWake(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w := newDiffWorld(t, seed)
		w.eng.Hooks.DropDirtyNotification = true
		w.run(diffSteps(t))
		if len(w.diffs) > 0 {
			t.Logf("seed %d: mutant rediscovered after %d steps: %s", seed, w.step, w.diffs[0])
			return
		}
	}
	t.Fatalf("DropDirtyNotification mutant survived the differential suite on every seed")
}

// TestIncrementalDifferentialRediscoversStaleOrder seeds the
// StaleOrderOnInsert mutant — a new offer is filed at the tail of the
// ordered list instead of at its key — and demands the differential
// suite catch it.
func TestIncrementalDifferentialRediscoversStaleOrder(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w := newDiffWorld(t, seed)
		w.eng.Hooks.StaleOrderOnInsert = true
		w.run(diffSteps(t))
		if len(w.diffs) > 0 {
			t.Logf("seed %d: mutant rediscovered after %d steps: %s", seed, w.step, w.diffs[0])
			return
		}
	}
	t.Fatalf("StaleOrderOnInsert mutant survived the differential suite on every seed")
}

// TestIncrementalDifferentialRediscoversStopBeforeTies seeds the
// StopBeforeTies mutant — the rank-ordered walk stops at its first
// match without finishing that match's equal-rank run — and demands
// the differential suite catch it.
func TestIncrementalDifferentialRediscoversStopBeforeTies(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w := newDiffWorld(t, seed)
		w.eng.Hooks.StopBeforeTies = true
		w.run(diffSteps(t))
		if len(w.diffs) > 0 {
			t.Logf("seed %d: mutant rediscovered after %d steps: %s", seed, w.step, w.diffs[0])
			return
		}
	}
	t.Fatalf("StopBeforeTies mutant survived the differential suite on every seed")
}

// TestIncrementalDifferentialRediscoversStaleRank seeds the
// SkipRankListUpdate mutant — a changed offer keeps its old rank on
// the rank lists — and demands the differential suite catch it.
func TestIncrementalDifferentialRediscoversStaleRank(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w := newDiffWorld(t, seed)
		w.eng.Hooks.SkipRankListUpdate = true
		w.run(diffSteps(t))
		if len(w.diffs) > 0 {
			t.Logf("seed %d: mutant rediscovered after %d steps: %s", seed, w.step, w.diffs[0])
			return
		}
	}
	t.Fatalf("SkipRankListUpdate mutant survived the differential suite on every seed")
}

func joinLines(lines []string) string {
	out := ""
	for _, l := range lines {
		out += "  " + l + "\n"
	}
	return out
}

// TestIncrementalNeedsWake pins the needs_matchmaking discipline: only
// a delta that changes the pool raises it (and sends a Ready token);
// a content-identical refresh and a removal for an unknown key do not;
// Recompute clears it.
func TestIncrementalNeedsWake(t *testing.T) {
	eng := NewIncremental(New(Config{}))
	if eng.NeedsWake() {
		t.Fatalf("fresh engine claims pending work")
	}
	eng.Apply(AdDelta{Kind: AdRemove, Key: "never-seen"})
	if eng.NeedsWake() {
		t.Fatalf("unknown removal woke the engine")
	}

	eng.Apply(AdDelta{Kind: AdOffer, Key: "m1", Ad: machine("m1", "INTEL", 64)})
	if !eng.NeedsWake() {
		t.Fatalf("a new offer did not raise needs_matchmaking")
	}
	select {
	case <-eng.Ready():
	default:
		t.Fatalf("a new offer sent no Ready token")
	}

	matches, stats := eng.Recompute()
	if len(matches) != 0 || stats.Offers != 1 || stats.Requests != 0 || stats.Deltas != 1 {
		t.Fatalf("unexpected first wake: %d matches, stats %+v", len(matches), stats)
	}
	if eng.NeedsWake() {
		t.Fatalf("Recompute left work pending")
	}

	// A re-parse of the same content is a heartbeat, not a change.
	eng.Apply(AdDelta{Kind: AdOffer, Key: "m1", Ad: machine("m1", "INTEL", 64)})
	if eng.NeedsWake() {
		t.Fatalf("content-identical refresh woke the engine")
	}
}

// TestIncrementalSync pins the snapshot feed: Sync upserts what the
// snapshot holds, leaves identical records alone, and removes what it
// no longer mentions — freeing the offer a departed request held.
func TestIncrementalSync(t *testing.T) {
	eng := NewIncremental(New(Config{}))
	m1, j1 := machine("m1", "INTEL", 64), namedJob("j1", "u1", "INTEL", 32)
	snapshot := []AdDelta{
		{Kind: AdOffer, Key: "m1", Ad: m1},
		{Kind: AdRequest, Key: "j1", Ad: j1},
	}
	eng.Sync(snapshot)
	if ms, _ := eng.Recompute(); len(ms) != 1 {
		t.Fatalf("expected 1 match, got %d", len(ms))
	}
	eng.Sync(snapshot)
	if eng.NeedsWake() {
		t.Fatalf("an unchanged snapshot woke the engine")
	}
	j2 := namedJob("j2", "u2", "INTEL", 32)
	eng.Sync([]AdDelta{
		{Kind: AdOffer, Key: "m1", Ad: m1},
		{Kind: AdRequest, Key: "j2", Ad: j2},
	})
	ms, _ := eng.Recompute()
	if len(ms) != 1 || ms[0].Request != j2 || ms[0].Offer != m1 {
		t.Fatalf("after j1 left the snapshot: matches %v, want j2 -> m1", ms)
	}
}

// TestIncrementalMarkAllDirty pins the fallback: a full rebuild is
// forced even with no delta, and it repairs state a dropped
// notification corrupted.
func TestIncrementalMarkAllDirty(t *testing.T) {
	eng := NewIncremental(New(Config{}))
	eng.Apply(
		AdDelta{Kind: AdOffer, Key: "m1", Ad: machine("m1", "INTEL", 64)},
		AdDelta{Kind: AdRequest, Key: "j1", Ad: namedJob("j1", "u1", "INTEL", 32)},
	)
	if ms, _ := eng.Recompute(); len(ms) != 1 {
		t.Fatalf("expected 1 match, got %d", len(ms))
	}

	// Simulate a lost notification: the machine shrank below the job's
	// floor but the engine never heard.
	eng.Hooks.DropDirtyNotification = true
	eng.Apply(AdDelta{Kind: AdOffer, Key: "m1", Ad: machine("m1", "INTEL", 16)})
	if eng.NeedsWake() {
		t.Fatalf("mutant did not drop the notification")
	}
	eng.Hooks.DropDirtyNotification = false

	eng.MarkAllDirty()
	if !eng.NeedsWake() {
		t.Fatalf("MarkAllDirty queued no work")
	}
	// The fallback rebuild re-noticed nothing (the engine's copy of m1
	// is stale) but it re-negotiates every request against its stored
	// ads — and once the store's next full refresh arrives, the repair
	// completes. Here we deliver the repair as the fallback's re-sync.
	eng.Apply(AdDelta{Kind: AdOffer, Key: "m1", Ad: machine("m1", "INTEL", 16)})
	ms, stats := eng.Recompute()
	if !stats.FullRebuild {
		t.Fatalf("fallback wake was not a full rebuild: %+v", stats)
	}
	if len(ms) != 0 {
		t.Fatalf("fallback kept a match the shrunken machine cannot satisfy: %v", ms)
	}
}

// namedJob is job() plus the Name the pool keys requests by.
func namedJob(name, owner, arch string, minMem int64) *classad.Ad {
	ad := job(owner, arch, minMem)
	ad.SetString("Name", name)
	return ad
}

// TestWakeCostIndependentOfPoolSize pins what a wake may allocate: with
// no request to serve, one content delta — or one offer added and one
// removed — costs the same number of allocations (to within one, see
// below) at 1,000 offers as at 16,000. Time and bytes are
// BenchmarkWakeOneDelta's business. The index is built by the seeding
// wake; a wake that rebuilt it would be a different measurement, so
// the run stays below the compaction threshold.
func TestWakeCostIndependentOfPoolSize(t *testing.T) {
	measure := func(n int, membership bool) float64 {
		eng := NewIncremental(New(Config{Env: classad.FixedEnv(0, 1)}))
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("m%05d", i)
			eng.Apply(AdDelta{Kind: AdOffer, Key: key, Ad: machine(key, "INTEL", 64)})
		}
		eng.Recompute()
		// The deltas are prepared outside the measured function: only
		// Apply and Recompute are on the wake's bill.
		const runs = 50
		var deltas [runs + 1][]AdDelta
		for r := range deltas {
			if membership {
				gone, added := fmt.Sprintf("m%05d", r), fmt.Sprintf("m%05d+", n/2+r)
				deltas[r] = []AdDelta{
					{Kind: AdRemove, Key: gone},
					{Kind: AdOffer, Key: added, Ad: machine(added, "INTEL", 64)},
				}
			} else {
				key := fmt.Sprintf("m%05d", n/2)
				deltas[r] = []AdDelta{{Kind: AdOffer, Key: key, Ad: machine(key, "INTEL", int64(65+r))}}
			}
		}
		r := 0
		return testing.AllocsPerRun(runs, func() {
			eng.Apply(deltas[r]...)
			eng.Recompute()
			r++
		})
	}
	for _, membership := range []bool{false, true} {
		small, large := measure(1000, membership), measure(16000, membership)
		t.Logf("membership=%v: %.0f allocs/wake at 1,000 offers, %.0f at 16,000", membership, small, large)
		// The index's posting lists grow by amortized appends, and a
		// reallocation lands on different wakes at different sizes: the
		// averages may differ by one, never by anything the pool scales.
		if math.Abs(small-large) > 1 {
			t.Errorf("membership=%v: a wake allocates %.0f times at 1,000 offers and %.0f at 16,000", membership, small, large)
		}
	}
}
