// Command csim regenerates the repository's pool-scale experiments
// (EXPERIMENTS.md): the matchmaker-versus-queues comparison (E7), the
// opportunistic-scheduling study (E8), the weak-consistency staleness
// sweep (E5), the negotiation-cycle scalability sweep (E10), and the
// group-matching sweep over pool regularity (E11). Each prints one table.
//
// Usage:
//
//	csim -experiment e5|e7|e8|e10|e11|all [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/classad"
	"repro/internal/matchmaker"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment to run: e5, e7, e8, e10, e11, e15, all")
	seed := flag.Int64("seed", 42, "random seed")
	flag.Parse()
	switch *exp {
	case "e5":
		runE5(*seed)
	case "e7":
		runE7(*seed)
	case "e8":
		runE8(*seed)
	case "e10":
		runE10(*seed)
	case "e11":
		runE11(*seed)
	case "e15":
		runE15(*seed)
	case "all":
		runE5(*seed)
		runE7(*seed)
		runE8(*seed)
		runE10(*seed)
		runE11(*seed)
		runE15(*seed)
	default:
		fmt.Fprintf(os.Stderr, "csim: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// runSim executes one simulation, optionally with a non-default
// scheduler factory.
func runSim(cfg sim.Config, sched func(env *classad.Env) sim.Scheduler) sim.Metrics {
	s := sim.New(cfg)
	if sched != nil {
		cfg.Scheduler = sched(s.Env())
		s = sim.New(cfg)
	}
	return s.Run()
}

// runE5 sweeps advertisement staleness: longer refresh periods mean
// more claims land on machines whose state changed, all caught by
// claim-time re-validation (paper §3.2, weak consistency).
func runE5(seed int64) {
	fmt.Println("E5: weak consistency — stale ads are caught at claim time")
	fmt.Println("  pool: 20 flapping desktops; workload: 100 x 20-min jobs; 1 simulated day")
	fmt.Printf("  %-18s %12s %10s %10s %10s\n",
		"advertise-period", "stale-rejects", "completed", "evictions", "goodput")
	for _, period := range []int64{300, 900, 1800, 3600} {
		m := runSim(sim.Config{
			Pool: sim.PoolSpec{Machines: 20, DesktopFraction: 1,
				MeanOwnerActive: 900, MeanOwnerIdle: 1800, Classes: 1},
			Workload:        sim.JobSpec{Jobs: 100, MeanRuntime: 1200},
			Seed:            seed,
			Duration:        86400,
			AdvertisePeriod: period,
		}, nil)
		fmt.Printf("  %-18d %12d %10d %10d %10.0f\n",
			period, m.StaleRejects, m.Completed, m.Evictions, m.Goodput())
	}
	fmt.Println()
}

// runE7 compares the matchmaker against the conventional queue
// scheduler across desktop fractions: the matchmaker's margin is the
// harvestable desktop capacity, vanishing on a fully dedicated pool.
func runE7(seed int64) {
	fmt.Println("E7: matchmaking vs conventional queues (goodput in cpu-s/day)")
	fmt.Println("  pool: 30 machines; workload: 400 x 1-h jobs; 1 simulated day")
	fmt.Printf("  %-16s %14s %14s %10s %14s\n",
		"desktop-frac", "matchmaker", "queues", "ratio", "queue-evicts")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cfg := sim.Config{
			Pool: sim.PoolSpec{Machines: 30, DesktopFraction: frac,
				MeanOwnerActive: 3600, MeanOwnerIdle: 7200, Classes: 1},
			Workload: sim.JobSpec{Jobs: 400, MeanRuntime: 3600,
				Users: []string{"u1", "u2", "u3"}},
			Seed:     seed,
			Duration: 86400,
		}
		mm := runSim(cfg, nil)
		qs := runSim(cfg, func(env *classad.Env) sim.Scheduler { return baseline.New(env) })
		ratio := 0.0
		if qs.Goodput() > 0 {
			ratio = mm.Goodput() / qs.Goodput()
		}
		fmt.Printf("  %-16.2f %14.0f %14.0f %10.2f %14d\n",
			frac, mm.Goodput(), qs.Goodput(), ratio, qs.Evictions)
	}
	fmt.Println()
}

// runE8 studies opportunistic scheduling on an all-desktop pool:
// cycles harvested, evictions suffered, and the effect of
// checkpointing on wasted work (Figure 2's WantCheckpoint).
func runE8(seed int64) {
	fmt.Println("E8: opportunistic scheduling on owner-occupied desktops")
	fmt.Println("  pool: 40 desktops; workload: 300 x 1-h jobs; 2 simulated days")
	fmt.Printf("  %-14s %10s %10s %12s %12s %8s\n",
		"checkpointing", "completed", "evictions", "wasted", "goodput", "util%")
	for _, ckpt := range []bool{false, true} {
		m := runSim(sim.Config{
			Pool: sim.PoolSpec{Machines: 40, DesktopFraction: 1,
				MeanOwnerActive: 3600, MeanOwnerIdle: 5400, Classes: 1},
			Workload: sim.JobSpec{Jobs: 300, MeanRuntime: 3600,
				Users: []string{"u1", "u2", "u3"}, Checkpoint: ckpt},
			Seed:     seed,
			Duration: 2 * 86400,
		}, nil)
		fmt.Printf("  %-14v %10d %10d %12.0f %12.0f %8.1f\n",
			ckpt, m.Completed, m.Evictions, m.WastedWork, m.Goodput(),
			100*m.Utilization())
	}
	// Diurnal variant: owners mostly present by day, away at night —
	// the harvest concentrates in the off-hours.
	md := runSim(sim.Config{
		Pool: sim.PoolSpec{Machines: 40, DesktopFraction: 1,
			MeanOwnerActive: 3600, MeanOwnerIdle: 5400,
			Diurnal: true, Classes: 1},
		Workload: sim.JobSpec{Jobs: 300, MeanRuntime: 3600,
			Users: []string{"u1", "u2", "u3"}},
		Seed:     seed,
		Duration: 2 * 86400,
	}, nil)
	var day, night int
	for h, n := range md.ClaimsByHour {
		if h >= 8 && h < 18 {
			day += n
		} else {
			night += n
		}
	}
	fmt.Printf("  diurnal owners: claims/hour day=%.1f night=%.1f (harvest follows the owners home)\n",
		float64(day)/10, float64(night)/14)
	fmt.Println()
}

// runE10 measures negotiation-cycle latency against pool size — the
// scalability of the matchmaking algorithm itself, no simulation.
func runE10(seed int64) {
	fmt.Println("E10: negotiation cycle latency vs pool size (wall clock)")
	fmt.Printf("  %-10s %-10s %14s %10s\n", "machines", "jobs", "cycle", "matches")
	for _, n := range []int{10, 100, 1000, 5000} {
		machines := syntheticMachines(n, seed)
		jobs := syntheticJobs(n/2, seed)
		cycleTime, matches := timeCycle(matchmaker.Config{}, jobs, machines)
		fmt.Printf("  %-10d %-10d %14s %10d\n", n, n/2, cycleTime, matches)
	}
	fmt.Println()
}

// runE11 measures group matching against pool regularity: a cycle's
// time and the pairs it tries per match. An equal-rank run of twins
// costs one try, not one per twin, so the pairs stay near one per
// match however few classes the pool holds.
func runE11(seed int64) {
	fmt.Println("E11: group matching vs pool regularity (wall clock)")
	const n = 2000
	fmt.Printf("  pool: %d machines; 200 jobs\n", n)
	fmt.Printf("  %-10s %14s %10s %12s\n", "classes", "cycle", "matches", "pairs/match")
	for _, classes := range []int{1, 4, 16, 64, 256} {
		machines := regularMachines(n, classes, seed)
		jobs := syntheticJobs(200, seed)
		cycle, matches := timeCycle(matchmaker.Config{}, jobs, machines)
		o := obs.New()
		probe := matchmaker.New(matchmaker.Config{})
		probe.Instrument(o)
		probe.Negotiate(jobs, machines)
		tried := o.Registry().Histogram("matchmaker_offers_scanned", nil).Sum()
		fmt.Printf("  %-10d %14s %10d %12.2f\n", classes, cycle, matches, tried/float64(max(matches, 1)))
	}
	fmt.Println()
}

// runE15 measures priority preemption (paper §4: a claimed machine is
// "still interested in hearing from higher priority customers"): with
// preemption on, the high-priority user's first result arrives while
// low-priority jobs still occupy the saturated pool.
func runE15(seed int64) {
	fmt.Println("E15: priority preemption on a saturated pool")
	fmt.Println("  pool: 8 dedicated machines ranking vip 10x; 48 long jobs from 3 users")
	fmt.Printf("  %-12s %12s %12s %14s %12s\n",
		"preemption", "preemptions", "completed", "vip-first(s)", "wasted")
	for _, preempt := range []bool{false, true} {
		cfg := sim.Config{
			Pool: sim.PoolSpec{Machines: 8, DesktopFraction: 0, Classes: 1,
				RankExpr: `member(other.Owner, {"vip"}) * 10`},
			Workload: sim.JobSpec{Jobs: 48, MeanRuntime: 20000,
				Users: []string{"peon", "peon2", "vip"}},
			Seed:       seed,
			Duration:   2 * 86400,
			Preemption: preempt,
		}
		s := sim.New(cfg)
		m := s.Run()
		vipFirst := int64(-1)
		for _, c := range s.Customers() {
			if c.Owner() != "vip" {
				continue
			}
			for _, j := range c.Snapshot() {
				if cd, ok := j.Ad.Eval("CompletionDate").IntVal(); ok && cd > 0 {
					if vipFirst == -1 || cd < vipFirst {
						vipFirst = cd
					}
				}
			}
		}
		fmt.Printf("  %-12v %12d %12d %14d %12.0f\n",
			preempt, m.Preemptions, m.Completed, vipFirst, m.WastedWork)
	}
	fmt.Println()
}

func timeCycle(cfg matchmaker.Config, jobs, machines []*classad.Ad) (time.Duration, int) {
	mm := matchmaker.New(cfg)
	start := time.Now()
	matches := mm.Negotiate(jobs, machines)
	return time.Since(start), len(matches)
}

func syntheticMachines(n int, seed int64) []*classad.Ad {
	eng := sim.NewEngine(seed)
	pool := sim.BuildPool(sim.PoolSpec{
		Machines: n,
		ArchMix:  map[string]float64{"INTEL": 0.7, "SPARC": 0.3},
	}, eng, classad.FixedEnv(0, seed))
	out := make([]*classad.Ad, n)
	for i, m := range pool {
		ad, err := m.Res.Advertise()
		if err != nil {
			panic(err)
		}
		out[i] = ad
	}
	return out
}

func regularMachines(n, classes int, seed int64) []*classad.Ad {
	out := make([]*classad.Ad, n)
	for i := range out {
		c := i % classes
		ad := classad.NewAd()
		ad.SetString(classad.AttrType, "Machine")
		ad.SetString(classad.AttrName, fmt.Sprintf("m%05d", i))
		ad.SetString("Arch", "INTEL")
		ad.SetString("OpSys", "SOLARIS251")
		ad.SetInt("Memory", int64(32*(c+1)))
		ad.SetInt("Mips", int64(100+c))
		out[i] = ad
	}
	return out
}

func syntheticJobs(n int, seed int64) []*classad.Ad {
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
