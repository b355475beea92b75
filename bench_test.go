// Benchmark harness: one benchmark (or benchmark family) per
// experiment row in DESIGN.md §4 / EXPERIMENTS.md. The pool-scale
// simulations behind E5/E7/E8 are reproduced by cmd/csim; the
// benchmarks here measure the language micro-costs (E13), the
// negotiation cycle's scaling (E10), group matching (E11),
// fair-share accounting (E9), gangmatching (E14), and the per-record
// remote-syscall tax (E17).
package matchmaking_test

import (
	"fmt"
	"math/rand"
	"testing"

	matchmaking "repro"
	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/remote"
	"repro/internal/sim"
)

// ---- E13: language micro-costs ----

// BenchmarkParseFigure1 measures parsing the paper's workstation ad.
func BenchmarkParseFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := classad.Parse(classad.Figure1Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseFigure2 measures parsing the job ad.
func BenchmarkParseFigure2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := classad.Parse(classad.Figure2Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalConstraint measures one evaluation of the Figure 1
// owner policy against a job — the inner loop of every negotiation
// cycle.
func BenchmarkEvalConstraint(b *testing.B) {
	machine := classad.Figure1()
	job := classad.Figure2()
	env := classad.FixedEnv(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !classad.EvalConstraint(machine, job, env) {
			b.Fatal("figures must match")
		}
	}
}

// BenchmarkEvalRank measures Rank evaluation (arithmetic over both
// ads).
func BenchmarkEvalRank(b *testing.B) {
	machine := classad.Figure1()
	job := classad.Figure2()
	env := classad.FixedEnv(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if classad.EvalRank(job, machine, env) == 0 {
			b.Fatal("rank should be positive")
		}
	}
}

// BenchmarkMatch measures the full bilateral match of Figures 1 and 2.
func BenchmarkMatch(b *testing.B) {
	machine := classad.Figure1()
	job := classad.Figure2()
	env := classad.FixedEnv(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !classad.MatchEnv(job, machine, env).Matched {
			b.Fatal("figures must match")
		}
	}
}

// BenchmarkUnparse measures canonical ad rendering (the wire form).
func BenchmarkUnparse(b *testing.B) {
	machine := classad.Figure1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if machine.String() == "" {
			b.Fatal("empty unparse")
		}
	}
}

// ---- E10: negotiation cycle scaling ----

func poolAds(n int, seed int64) []*classad.Ad {
	eng := sim.NewEngine(seed)
	machines := sim.BuildPool(sim.PoolSpec{
		Machines: n,
		ArchMix:  map[string]float64{"INTEL": 0.7, "SPARC": 0.3},
	}, eng, classad.FixedEnv(0, seed))
	out := make([]*classad.Ad, n)
	for i, m := range machines {
		ad, err := m.Res.Advertise()
		if err != nil {
			panic(err)
		}
		out[i] = ad
	}
	return out
}

func jobAds(n int, seed int64) []*classad.Ad {
	eng := sim.NewEngine(seed + 1)
	customers := sim.BuildWorkload(sim.JobSpec{
		Jobs:    n,
		Users:   []string{"u1", "u2", "u3", "u4"},
		ArchMix: map[string]float64{"INTEL": 0.7, "SPARC": 0.3},
	}, eng, classad.FixedEnv(0, seed))
	var out []*classad.Ad
	for _, c := range customers {
		out = append(out, c.IdleRequests()...)
	}
	return out
}

// bigPool builds a heterogeneous offer set for the negotiation
// benchmarks: four architectures crossed with eight memory tiers, so a
// typical arch+memory constraint selects roughly 1/8 of the pool.
func bigPool(n int) []*classad.Ad {
	archs := []string{"INTEL", "SPARC", "ALPHA", "HPPA"}
	out := make([]*classad.Ad, n)
	for i := range out {
		ad := classad.NewAd()
		ad.SetString("Type", "Machine")
		ad.SetString("Name", fmt.Sprintf("m%d", i))
		ad.SetString("Arch", archs[i%len(archs)])
		ad.SetInt("Memory", int64(32*(1+i%8)))
		ad.SetInt("Mips", int64(10+i%90))
		if err := ad.SetExprString("Constraint", "other.Memory <= Memory"); err != nil {
			panic(err)
		}
		if err := ad.SetExprString("Rank", "other.Memory"); err != nil {
			panic(err)
		}
		out[i] = ad
	}
	return out
}

// bigRequests builds indexable requests against bigPool: an equality
// on Arch and a lower bound on Memory, plus a Rank so the scan cannot
// shortcut.
func bigRequests(n int) []*classad.Ad {
	archs := []string{"INTEL", "SPARC", "ALPHA", "HPPA"}
	out := make([]*classad.Ad, n)
	for i := range out {
		ad := classad.NewAd()
		ad.SetString("Type", "Job")
		ad.SetString("Owner", fmt.Sprintf("u%d", i%4))
		ad.SetInt("Memory", int64(16+i%32))
		if err := ad.SetExprString("Constraint", fmt.Sprintf(
			`other.Arch == %q && other.Memory >= %d`,
			archs[i%len(archs)], 32*(5+i%4))); err != nil {
			panic(err)
		}
		if err := ad.SetExprString("Rank", "other.Mips"); err != nil {
			panic(err)
		}
		out[i] = ad
	}
	return out
}

// BenchmarkNegotiationCycle measures one one-shot cycle — index
// build, per-request candidate pruning, rank-maximizing scan — of 32
// requests against N offers.
func BenchmarkNegotiationCycle(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("machines=%d", n), func(b *testing.B) {
			offers := bigPool(n)
			requests := bigRequests(32)
			mm := matchmaker.New(matchmaker.Config{Env: classad.FixedEnv(0, 1)})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(mm.Negotiate(requests, offers)) == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// BenchmarkNegotiateTraced prices the causal-observability layer on
// the negotiation hot path: the same 32-request cycle against 1k
// offers, bare versus fully instrumented — span recording on
// trace-stamped requests plus the per-offer rejection forensics that
// back `cstatus -why`.
func BenchmarkNegotiateTraced(b *testing.B) {
	offers := bigPool(1000)
	requests := bigRequests(32)
	for _, req := range requests {
		req.SetString(classad.AttrTraceID, obs.NewTraceID())
	}
	for _, mode := range []struct {
		name       string
		instrument bool
	}{
		{"bare", false},
		{"instrumented", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			mm := matchmaker.New(matchmaker.Config{Env: classad.FixedEnv(0, 1)})
			if mode.instrument {
				mm.Instrument(obs.New())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(mm.Negotiate(requests, offers)) == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// ---- E11: group matching ----

func regularPool(n, classes int) []*classad.Ad {
	out := make([]*classad.Ad, n)
	for i := range out {
		c := i % classes
		ad := classad.NewAd()
		ad.SetString("Type", "Machine")
		ad.SetString("Name", fmt.Sprintf("m%05d", i))
		ad.SetString("Arch", "INTEL")
		ad.SetString("OpSys", "SOLARIS251")
		ad.SetInt("Memory", int64(32*(c+1)))
		ad.SetInt("Mips", int64(100+c))
		out[i] = ad
	}
	return out
}

// BenchmarkAggregation measures a negotiation cycle over a
// value-regular pool across regularity levels. An equal-rank run of
// twins costs one try, so evals/match stays near one however few
// classes the pool holds.
func BenchmarkAggregation(b *testing.B) {
	const n = 1000
	requests := jobAds(50, 7)
	for _, classes := range []int{1, 16, 256} {
		offers := regularPool(n, classes)
		b.Run(fmt.Sprintf("classes=%d", classes), func(b *testing.B) {
			benchGroupCycle(b, requests, offers)
		})
	}
}

// BenchmarkAggregationBatch measures a batch of identical jobs against
// a value-regular pool: each job's scan tries one pair, not one per
// offer of the best-ranked class.
func BenchmarkAggregationBatch(b *testing.B) {
	offers := regularPool(1000, 4)
	var requests []*classad.Ad
	for i := 0; i < 200; i++ {
		r := classad.NewAd()
		r.SetString("Type", "Job")
		r.SetString("Owner", "u")
		r.SetInt("JobId", int64(i+1))
		r.SetInt("Memory", 32)
		if err := r.SetExprString("Constraint",
			`other.Arch == "INTEL" && other.Memory >= self.Memory`); err != nil {
			b.Fatal(err)
		}
		if err := r.SetExprString("Rank", "other.Memory"); err != nil {
			b.Fatal(err)
		}
		requests = append(requests, r)
	}
	benchGroupCycle(b, requests, offers)
}

// benchGroupCycle times Negotiate over requests and offers and reports
// the pairs one such cycle tries per match, read from an instrumented
// matchmaker's matchmaker_offers_scanned.
func benchGroupCycle(b *testing.B, requests, offers []*classad.Ad) {
	cfg := matchmaker.Config{Env: classad.FixedEnv(0, 1)}
	o := obs.New()
	probe := matchmaker.New(cfg)
	probe.Instrument(o)
	matches := len(probe.Negotiate(requests, offers))
	if matches == 0 {
		b.Fatal("no matches")
	}
	tried := o.Registry().Histogram("matchmaker_offers_scanned", nil).Sum()
	mm := matchmaker.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(mm.Negotiate(requests, offers)) != matches {
			b.Fatal("wrong match count")
		}
	}
	b.ReportMetric(tried/float64(matches), "evals/match")
}

// ---- E9: fair share ----

// BenchmarkFairShare measures a contended cycle with usage-ordered
// customers (accounting included).
func BenchmarkFairShare(b *testing.B) {
	offers := poolAds(100, 3)
	requests := jobAds(200, 3)
	for _, fair := range []bool{false, true} {
		b.Run(fmt.Sprintf("fairshare=%v", fair), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh matchmaker per iteration: fair-share
				// ordering depends on accumulated usage, so reusing
				// one instance would make each iteration's work a
				// function of b.N and the ns/op unstable run-to-run.
				mm := matchmaker.New(matchmaker.Config{
					Env: classad.FixedEnv(0, 1), FairShare: fair,
				})
				mm.Negotiate(requests, offers)
			}
		})
	}
}

// ---- E14: gangmatching ----

// BenchmarkGangMatch measures co-allocating a two-resource gang out of
// a mixed pool.
func BenchmarkGangMatch(b *testing.B) {
	offers := poolAds(200, 5)
	for i := 0; i < 10; i++ {
		tape := classad.NewAd()
		tape.SetString("Type", "TapeDrive")
		tape.SetString("Name", fmt.Sprintf("tape%d", i))
		tape.SetInt("TransferRate", int64(5+i))
		offers = append(offers, tape)
	}
	gang := classad.MustParse(`[
		Type = "Job"; Owner = "u";
		Gang = {
			[ Constraint = other.Type == "Machine" && other.Arch == "INTEL";
			  Rank = other.Mips ],
			[ Constraint = other.Type == "TapeDrive" && other.TransferRate >= 8 ]
		};
	]`)
	env := classad.FixedEnv(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := matchmaker.MatchGang(gang, offers, env); !ok {
			b.Fatal("gang should match")
		}
	}
}

// ---- E12: analyzer ----

// BenchmarkAnalyze measures a full clause-by-clause diagnosis against
// a 1000-machine pool.
func BenchmarkAnalyze(b *testing.B) {
	offers := poolAds(1000, 9)
	req := classad.MustParse(`[
		Owner = "u";
		Constraint = other.Type == "Machine" && other.Arch == "ALPHA"
		          && other.Memory >= 64 && other.Mips >= 100;
	]`)
	env := classad.FixedEnv(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := matchmaker.Analyze(req, offers, env)
		if !a.Unsatisfiable {
			b.Fatal("ALPHA clause should be unsatisfiable")
		}
	}
}

// ---- E5: claim-time re-validation cost ----

// BenchmarkClaimRevalidation measures the RA-side claim check — ticket
// comparison plus bilateral constraint re-evaluation against current
// state — that the weak-consistency design adds to every allocation.
func BenchmarkClaimRevalidation(b *testing.B) {
	env := classad.FixedEnv(1000, 1)
	base := classad.Figure1()
	job := classad.Figure2()
	ra := agent.NewResource(base, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ad, err := ra.Advertise()
		if err != nil {
			b.Fatal(err)
		}
		ticket, _ := ad.Eval(classad.AttrTicket).StringVal()
		b.StartTimer()
		out := ra.RequestClaim(job, ticket)
		if !out.Accepted {
			b.Fatal(out.Reason)
		}
		b.StopTimer()
		if err := ra.Release("raman"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkPartialEval measures rewriting the Figure 2 constraint to
// its residual form — the analyzer's per-clause cost.
func BenchmarkPartialEval(b *testing.B) {
	job := classad.Figure2()
	ce, _ := classad.ConstraintOf(job)
	env := classad.FixedEnv(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = classad.PartialEval(ce, job, env)
	}
}

// ---- protocol and execution-substrate costs ----

// BenchmarkRemoteSyscallStep measures one record of remote-syscall
// execution: a read, a write, and their framing — the per-step tax of
// keeping the execution site stateless.
func BenchmarkRemoteSyscallStep(b *testing.B) {
	fs := remote.NewFileStore()
	fs.Put("in", make([]byte, 1<<20))
	shadow := remote.NewShadow(fs, nil)
	addr, err := shadow.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer shadow.Close()
	c, err := remote.DialShadow(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	in, err := c.Open("in", "r")
	if err != nil {
		b.Fatal(err)
	}
	out, err := c.Open("out", "w")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1000) * 64
		data, _, err := c.ReadAt(in, off, 64)
		if err != nil {
			b.Fatal(err)
		}
		copy(buf, data)
		if err := c.WriteAt(out, off, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNotifyClaim measures one match's trip through real daemons
// on loopback: the RA and CA advertise, the manager's cycle sends the
// CA its MATCH, the CA claims the RA and gets the verdict, the manager
// sends the RA its MATCH, and the CA's completion sends the RELEASE.
// dials/op counts the connections opened per match (netx_dials_total):
// after the first match every one of them reuses a cached connection.
func BenchmarkNotifyClaim(b *testing.B) {
	reg := obs.NewRegistry()
	netx.Instrument(reg)
	defer netx.Instrument(nil)
	defer netx.DefaultDialer.CloseIdle()

	mgr := pool.NewManager(pool.ManagerConfig{})
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	machine := classad.Figure1()
	machine.SetInt("DayTime", 22*3600)
	machine.SetInt("KeyboardIdle", 3600)
	machine.SetReal("LoadAvg", 0.01)
	ra := pool.NewResourceDaemon(agent.NewResource(machine, nil), addr, 0, nil)
	if _, err := ra.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer ra.Close()
	ca := pool.NewCustomerDaemon(agent.NewCustomer("raman", nil), addr, 0, nil)
	if _, err := ca.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer ca.Close()

	job := classad.Figure2()
	match := func() {
		id := ca.CA.Submit(job, 1).ID
		if err := ra.Advertise(); err != nil {
			b.Fatal(err)
		}
		if err := ca.AdvertiseIdle(); err != nil {
			b.Fatal(err)
		}
		if res := mgr.RunCycle(); res.Charged != 1 {
			b.Fatalf("cycle = %+v, want one granted claim", res)
		}
		if err := ca.Complete(id); err != nil {
			b.Fatal(err)
		}
	}
	match() // the first match dials every peer
	dials := reg.Counter("netx_dials_total")
	before := dials.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match()
	}
	b.ReportMetric(float64(dials.Value()-before)/float64(b.N), "dials/op")
}

// ---- facade sanity (keeps the public API exercised from outside) ----

// BenchmarkFacadeMatch goes through the public facade.
func BenchmarkFacadeMatch(b *testing.B) {
	machine := matchmaking.MustParse(matchmaking.Figure1Source)
	job := matchmaking.MustParse(matchmaking.Figure2Source)
	env := matchmaking.FixedEnv(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !matchmaking.MatchEnv(job, machine, env).Matched {
			b.Fatal("figures must match")
		}
	}
}

// ---- Event-driven steady state: delta wakes vs full rebuilds ----

// namedBigRequests is bigRequests plus the Name attribute the
// incremental engine keys requests by.
func namedBigRequests(n int) []*classad.Ad {
	out := bigRequests(n)
	for i, ad := range out {
		ad.SetString("Name", fmt.Sprintf("bench-j%d", i))
	}
	return out
}

// BenchmarkSteadyStateDeltas measures one steady-state wake at pool
// scale: 10k offers, 32 live requests, and 1% of the offers
// re-advertised with changed content between wakes. The incremental
// engine replays only what the churn touched; the full-rebuild pair is
// what timer mode pays for the same pool every period. The committed
// baseline pins the gap (>=10x less negotiation work per wake); the
// evals/wake metric is the engine's own count of pairs tried, over a
// fixed number of wakes run before the timer starts, so it does not
// move with b.N.
func BenchmarkSteadyStateDeltas(b *testing.B) {
	const nOffers = 10000
	const nReqs = 32
	const churn = nOffers / 100 // 1% per wake
	env := classad.FixedEnv(0, 1)
	offers := bigPool(nOffers)
	requests := namedBigRequests(nReqs)

	// churned rebuilds offer i with a round-dependent Mips, so each
	// churn round really changes content (and rank landscape).
	churned := func(i, round int) *classad.Ad {
		ad := classad.MustParse(offers[i].String())
		ad.SetInt("Mips", int64(10+(i*7+round*13+1)%90))
		return ad
	}

	b.Run("incremental", func(b *testing.B) {
		eng := matchmaker.NewIncremental(matchmaker.New(matchmaker.Config{Env: env}))
		for _, ad := range offers {
			name, _ := ad.Eval("Name").StringVal()
			eng.Apply(matchmaker.AdDelta{Kind: matchmaker.AdOffer, Key: name, Ad: ad})
		}
		for _, ad := range requests {
			name, _ := ad.Eval("Name").StringVal()
			eng.Apply(matchmaker.AdDelta{Kind: matchmaker.AdRequest, Key: name, Ad: ad})
		}
		if ms, _ := eng.Recompute(); len(ms) == 0 {
			b.Fatal("no matches at seed")
		}
		wake := func(n int) matchmaker.WakeStats {
			for k := 0; k < churn; k++ {
				i := (n*churn + k) % nOffers
				eng.Apply(matchmaker.AdDelta{Kind: matchmaker.AdOffer,
					Key: fmt.Sprintf("m%d", i), Ad: churned(i, n)})
			}
			_, stats := eng.Recompute()
			return stats
		}
		const counted = 16
		evals := 0
		for n := 0; n < counted; n++ {
			evals += wake(n).Evals
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			wake(counted + n)
		}
		b.ReportMetric(float64(evals)/counted, "evals/wake")
	})

	b.Run("full-rebuild", func(b *testing.B) {
		mm := matchmaker.New(matchmaker.Config{Env: env})
		work := append([]*classad.Ad(nil), offers...)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for k := 0; k < churn; k++ {
				i := (n*churn + k) % nOffers
				work[i] = churned(i, n)
			}
			if len(mm.Negotiate(requests, work)) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// BenchmarkOrderedScan measures the scan of one job in the shape of the
// pool benchmark's pool.10k workload: 10k machine ads spread evenly
// over 16 platforms, of which the offer index leaves the ~530 of the
// job's platform that pass its Disk and Memory bounds; a constraint
// whose last conjunct is arithmetic the index cannot decide; and the
// Figure 2 Rank KFlops/1E3 + other.Memory/32. Only 16 machines of the
// platform accept the job; the rest refuse its owner in their own
// constraint, as a busy pool's do. Each operation is one wake serving
// one new job (the previous one leaves). Every job's Rank reduces to
// the same residual, so the scan walks the offer index's rank list for
// it and tries constraints only down to the best-ranked match's run:
// evals/match and ranks/match count that work over a fixed 64 jobs run
// before the timer starts. unmatched serves jobs no machine satisfies,
// which must try every candidate: its ns/op is the scan with nothing
// to stop it. churned is matched with 1 % of the offers changing
// between the counted jobs: listranks/job counts the ranks the rank
// list spends keeping up with the changes, the work the list moves out
// of the scan. Its timed jobs run without churn, on the churned pool:
// the churn's own cost (Apply, and an index rebuild every 100 jobs)
// comes in lumps whose share of an operation would depend on b.N, and
// a gated allocs/op must not.
func BenchmarkOrderedScan(b *testing.B) {
	const nOffers, nLive, nJobs, nChurn = 10000, 16, 64, 100
	r := rand.New(rand.NewSource(1))
	type platform struct{ arch, opsys string }
	var platforms []platform
	for _, arch := range []string{"INTEL", "SPARC", "ALPHA", "SGI"} {
		for _, opsys := range []string{"SOLARIS26", "LINUX", "IRIX65", "AIX43"} {
			platforms = append(platforms, platform{arch, opsys})
		}
	}
	between := func(lo, hi int) int { return lo + r.Intn(hi-lo+1) }
	pick := func(xs ...int) int { return xs[r.Intn(len(xs))] }
	// Figure 1's owner policy: a live machine's research group holds the
	// job's owner; a background machine's does not, and its DayTime is
	// in working hours, so it refuses strangers.
	machine := func(i int, live bool) *classad.Ad {
		plat, group, day := platforms[r.Intn(len(platforms))], `{ "wright" }`, between(8*3600, 18*3600)
		memory, disk, kflops := pick(16, 32, 64, 96, 128, 256), between(1000, 900000), between(1000, 90000)
		if live {
			plat, group = platforms[0], `{ "wright", "raman" }`
			memory, disk, kflops = pick(64, 96, 128, 256), between(100000, 900000), between(10000, 90000)
		}
		return classad.MustParse(fmt.Sprintf(`[ Type = "Machine"; Name = "m%05d";
			Arch = %q; OpSys = %q; Memory = %d; Disk = %d; KFlops = %d; Mips = %d;
			DayTime = %d; ResearchGroup = %s;
			Rank = member(other.Owner, ResearchGroup) * 10;
			Constraint = Rank >= 10 || DayTime < 8*60*60 || DayTime > 18*60*60 ]`,
			i, plat.arch, plat.opsys, memory, disk, kflops, between(50, 400), day, group))
	}
	job := func(k int, last string) *classad.Ad {
		return classad.MustParse(fmt.Sprintf(`[ Type = "Job"; Name = "job%d"; Owner = "raman";
			Memory = %d;
			Rank = KFlops/1E3 + other.Memory/32;
			Constraint = other.Type == "Machine" && Arch == %q && OpSys == %q
				&& Disk >= %d && other.Memory >= self.Memory && %s ]`,
			k, pick(16, 24, 31, 32, 48), platforms[0].arch, platforms[0].opsys, between(2000, 50000), last))
	}
	eng := matchmaker.NewIncremental(matchmaker.New(matchmaker.Config{Env: classad.FixedEnv(0, 1)}))
	// offers[i] is machine i's ad and its changed twin, which differs in
	// KFlops, the attribute the jobs' Rank reads first; current[i] says
	// which of the two the engine holds. The churn draws from its own
	// stream, so the pool and the jobs are those of the other cases.
	churn := rand.New(rand.NewSource(2))
	var offers [nOffers][2]*classad.Ad
	var current [nOffers]int
	for i := range offers {
		ad := machine(i, i%(nOffers/nLive) == 0)
		kflops, _ := ad.Eval("KFlops").IntVal()
		twin := ad.Copy()
		twin.SetInt("KFlops", kflops+1+int64(churn.Intn(1000)))
		offers[i] = [2]*classad.Ad{ad, twin}
		eng.Apply(matchmaker.AdDelta{Kind: matchmaker.AdOffer, Key: fmt.Sprintf("m%05d", i), Ad: ad})
	}
	eng.Recompute()

	for _, tc := range []struct {
		name, last     string
		matches, churn bool
	}{
		{"matched", "other.Mips * 1000 + other.KFlops >= %d", true, false},
		{"unmatched", "other.Mips * 1000 + other.KFlops >= %d * 1000000", false, false},
		{"churned", "other.Mips * 1000 + other.KFlops >= %d", true, true},
	} {
		jobs := make([]*classad.Ad, nJobs)
		for k := range jobs {
			jobs[k] = job(k, fmt.Sprintf(tc.last, between(20000, 50000)))
		}
		prev := ""
		serve := func(b *testing.B, k int) matchmaker.WakeStats {
			if tc.churn && k <= nJobs {
				for c := 0; c < nChurn; c++ {
					i := churn.Intn(nOffers)
					current[i] ^= 1
					eng.Apply(matchmaker.AdDelta{Kind: matchmaker.AdOffer, Key: fmt.Sprintf("m%05d", i), Ad: offers[i][current[i]]})
				}
			}
			key := fmt.Sprintf("%s-%d", tc.name, k)
			eng.Apply(matchmaker.AdDelta{Kind: matchmaker.AdRemove, Key: prev},
				matchmaker.AdDelta{Kind: matchmaker.AdRequest, Key: key, Ad: jobs[k%nJobs]})
			prev = key
			ms, stats := eng.Recompute()
			if (len(ms) == 1) != tc.matches {
				b.Fatalf("job %d: %d matches", k, len(ms))
			}
			return stats
		}
		b.Run(tc.name, func(b *testing.B) {
			// The testing package calls this once per b.N it tries:
			// each call starts the churn from the same pool and stream,
			// so the counts below are the same in every call.
			if tc.churn {
				for i := range current {
					if current[i] == 1 {
						current[i] = 0
						eng.Apply(matchmaker.AdDelta{Kind: matchmaker.AdOffer, Key: fmt.Sprintf("m%05d", i), Ad: offers[i][0]})
					}
				}
				churn = rand.New(rand.NewSource(3))
			}
			// One job first, so that the counts below never include
			// building the rank list, whichever sub-benchmarks run.
			serve(b, 0)
			var evals, ranks, listRanks int
			for k := 1; k <= nJobs; k++ {
				stats := serve(b, k)
				evals += stats.Evals
				ranks += stats.Ranks
				listRanks += stats.ListRanks
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b, nJobs+1+i)
			}
			per := "match"
			if !tc.matches || tc.churn {
				per = "job"
			}
			b.ReportMetric(float64(evals)/nJobs, "evals/"+per)
			b.ReportMetric(float64(ranks)/nJobs, "ranks/"+per)
			if tc.churn {
				b.ReportMetric(float64(listRanks)/nJobs, "listranks/"+per)
			}
		})
		eng.Apply(matchmaker.AdDelta{Kind: matchmaker.AdRemove, Key: prev})
	}
}

// BenchmarkWakeOneDelta measures what a wake costs when almost nothing
// changed and nobody is waiting: no requests, and per wake either one
// offer's content changing (offers=N) or one offer leaving while
// another arrives mid-list (membership/offers=N). The engine's ordered
// offer list and index are maintained by Apply and its per-wake
// vectors are reused, so ten times the pool must cost well under ten
// times the wake (the committed baseline pins <= 3x in time and
// bytes/op).
func BenchmarkWakeOneDelta(b *testing.B) {
	env := classad.FixedEnv(0, 1)
	seeded := func(b *testing.B, n int) (*matchmaker.Incremental, []*classad.Ad) {
		offers := bigPool(n)
		eng := matchmaker.NewIncremental(matchmaker.New(matchmaker.Config{Env: env}))
		for i, ad := range offers {
			eng.Apply(matchmaker.AdDelta{Kind: matchmaker.AdOffer, Key: fmt.Sprintf("m%05d", i), Ad: ad})
		}
		eng.Recompute()
		b.ReportAllocs()
		return eng, offers
	}
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("offers=%d", n), func(b *testing.B) {
			eng, offers := seeded(b, n)
			key := fmt.Sprintf("m%05d", n/2)
			changed := offers[n/2].Copy()
			changed.SetInt("Mips", 7)
			versions := [2]*classad.Ad{changed, offers[n/2]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Apply(matchmaker.AdDelta{Kind: matchmaker.AdOffer, Key: key, Ad: versions[i%2]})
				eng.Recompute()
			}
		})
	}
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("membership/offers=%d", n), func(b *testing.B) {
			eng, offers := seeded(b, n)
			// The offer at n/2 and a newcomer just after it take turns.
			keys := [2]string{fmt.Sprintf("m%05d", n/2), fmt.Sprintf("m%05d+", n/2)}
			ads := [2]*classad.Ad{offers[n/2], offers[n/2].Copy()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Apply(
					matchmaker.AdDelta{Kind: matchmaker.AdRemove, Key: keys[i%2]},
					matchmaker.AdDelta{Kind: matchmaker.AdOffer, Key: keys[(i+1)%2], Ad: ads[(i+1)%2]},
				)
				eng.Recompute()
			}
		})
	}
}
