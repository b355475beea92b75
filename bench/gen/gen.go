// Package gen is the benchmark's seeded input generator: heterogeneous
// machine and job classads in the shape of the paper's Figures 1 and 2.
// The same seed yields byte-identical ads. The program under test only
// ever sees the generated ads, never the seed.
//
// Two kinds of machine are generated. A live machine is willing to run
// jobs of both pool customers (Owners) and is fronted by a real
// ResourceDaemon. A background machine is an ad with no daemon behind
// it; by construction it never matches a generated job, so it costs
// the collector, the index and the evaluator work without ever
// producing a claim: its owner policy ranks both customers 0 and its
// DayTime sits in working hours, so the Figure 1 "strangers only at
// night" arm refuses them — or it lists them as Untrusted outright.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/classad"
)

// Owners are the pool's two customers.
var Owners = [2]string{"raman", "miron"}

// Platform is an (Arch, OpSys) pair.
type Platform struct{ Arch, OpSys string }

// Platforms lists the pool's platforms. Background machines are spread
// evenly over them, so one in sixteen survives the offer index's
// Arch/OpSys pruning for any one job.
var Platforms = []Platform{
	{"INTEL", "SOLARIS251"}, {"SPARC", "SOLARIS251"}, {"INTEL", "LINUX"}, {"ALPHA", "OSF1"},
	{"INTEL", "SOLARIS26"}, {"SPARC", "SOLARIS26"}, {"INTEL", "WINNT40"}, {"ALPHA", "LINUX"},
	{"SGI", "IRIX62"}, {"SGI", "IRIX65"}, {"HPPA", "HPUX9"}, {"HPPA", "HPUX10"},
	{"RS6000", "AIX41"}, {"RS6000", "AIX43"}, {"SPARC", "SUNOS41"}, {"MIPS", "ULTRIX43"},
}

// others are user names that appear in owner policies; none is a pool
// customer.
var others = []string{"tannenba", "wright", "solomon", "jbasney", "livny",
	"epaulson", "pfc", "zmiller", "rival", "riffraff", "thain", "bradley"}

const (
	hour       = 60 * 60
	workStart  = 8 * hour
	workEnd    = 18 * hour
	secsPerDay = 24 * hour
)

// Gen generates ads from one seeded stream.
type Gen struct{ rng *rand.Rand }

// New returns a generator for seed.
func New(seed int64) *Gen { return &Gen{rng: rand.New(rand.NewSource(seed))} }

// Intn exposes the generator's stream for workload decisions (which ad
// to refresh, which mix bucket) so they are seeded too.
func (g *Gen) Intn(n int) int { return g.rng.Intn(n) }

func (g *Gen) between(lo, hi int) int { return lo + g.rng.Intn(hi-lo+1) }

func (g *Gen) pick(xs []int) int { return xs[g.rng.Intn(len(xs))] }

// names returns a quoted classad list of n distinct names from others,
// followed by extra.
func (g *Gen) names(n int, extra ...string) string {
	perm := g.rng.Perm(len(others))[:n]
	all := make([]string, 0, n+len(extra))
	for _, i := range perm {
		all = append(all, others[i])
	}
	all = append(all, extra...)
	g.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	quoted := make([]string, len(all))
	for i, s := range all {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	return "{ " + strings.Join(quoted, ", ") + " }"
}

// machineSpec is everything that varies between machine ads.
type machineSpec struct {
	name                      string
	plat                      Platform
	dayTime, keyboardIdle     int
	disk, memory, mips, kflop int
	loadAvg                   float64
	state                     string
	group, friends, untrusted string
}

// The owner policy is Figure 1's, verbatim.
const machineTemplate = `[
    Type          = "Machine";
    Activity      = "Idle";
    DayTime       = %d;
    KeyboardIdle  = %d;
    Disk          = %d;
    Memory        = %d;
    State         = %q;
    LoadAvg       = %.6f;
    Mips          = %d;
    Arch          = %q;
    OpSys         = %q;
    KFlops        = %d;
    Name          = %q;
    ResearchGroup = %s;
    Friends       = %s;
    Untrusted     = %s;
    Rank = member(other.Owner, ResearchGroup) * 10
         + member(other.Owner, Friends);
    Constraint = !member(other.Owner, Untrusted) &&
                 ( Rank >= 10 ? true :
                   Rank > 0 ? LoadAvg < 0.3 && KeyboardIdle > 15*60 :
                   DayTime < 8*60*60 || DayTime > 18*60*60 );
]`

func (s machineSpec) ad() *classad.Ad {
	return classad.MustParse(fmt.Sprintf(machineTemplate,
		s.dayTime, s.keyboardIdle, s.disk, s.memory, s.state, s.loadAvg, s.mips,
		s.plat.Arch, s.plat.OpSys, s.kflop, s.name, s.group, s.friends, s.untrusted))
}

// night returns a DayTime outside working hours.
func (g *Gen) night() int {
	if g.rng.Intn(2) == 0 {
		return g.between(0, workStart-1)
	}
	return g.between(workEnd+1, secsPerDay-1)
}

// LiveMachine returns the ad of a machine on plat that accepts jobs of
// both Owners, through one of the three arms of the Figure 1 policy:
// research group (rank 10), friend on an idle machine (rank 1), or
// stranger at night (rank 0). Its capacity covers every generated job.
func (g *Gen) LiveMachine(name string, plat Platform) *classad.Ad {
	s := machineSpec{
		name:         name,
		plat:         plat,
		state:        "Unclaimed",
		dayTime:      g.between(workStart, workEnd),
		keyboardIdle: g.between(0, 600),
		loadAvg:      0.3 + g.rng.Float64(),
		disk:         g.between(100000, 900000),
		memory:       g.pick([]int{64, 96, 128, 256}),
		mips:         g.between(50, 400),
		kflop:        g.between(10000, 90000),
		group:        g.names(3),
		friends:      g.names(2),
		untrusted:    g.names(2),
	}
	idle := func() {
		s.loadAvg = 0.01 + 0.25*g.rng.Float64()
		s.keyboardIdle = g.between(1000, 50000)
	}
	switch g.rng.Intn(4) {
	case 0: // both customers in the research group
		s.group = g.names(2, Owners[0], Owners[1])
	case 1: // both are friends, and the machine is idle
		s.friends = g.names(1, Owners[0], Owners[1])
		idle()
	case 2: // one of each
		a := g.rng.Intn(2)
		s.group = g.names(2, Owners[a])
		s.friends = g.names(1, Owners[1-a])
		idle()
	default: // strangers, at night
		s.dayTime = g.night()
	}
	return s.ad()
}

// BackgroundMachine returns the ad of a machine that refuses both
// Owners (see the package comment), on any platform, with capacity
// spread wide enough that some ads fail a job's Memory and Disk bounds
// in the index and the rest reach the evaluator. Nineteen in twenty are
// busy (State Claimed or Owner), as in a pool that is doing its work.
func (g *Gen) BackgroundMachine(name string) *classad.Ad {
	state := "Unclaimed"
	if x := g.rng.Intn(20); x > 0 {
		state = []string{"Owner", "Claimed", "Claimed"}[x%3]
	}
	s := machineSpec{
		name:         name,
		plat:         Platforms[g.rng.Intn(len(Platforms))],
		state:        state,
		dayTime:      g.between(workStart, workEnd),
		keyboardIdle: g.between(0, 50000),
		loadAvg:      1.5 * g.rng.Float64(),
		disk:         g.between(1000, 900000),
		memory:       g.pick([]int{16, 32, 64, 96, 128, 256}),
		mips:         g.between(5, 400),
		kflop:        g.between(1000, 90000),
		group:        g.names(3),
		friends:      g.names(2),
		untrusted:    g.names(2),
	}
	if g.rng.Intn(10) == 0 {
		s.untrusted = g.names(1, Owners[0], Owners[1])
		s.dayTime = g.between(0, secsPerDay-1)
	}
	return s.ad()
}

// Churn returns a copy of a machine ad with the probe attributes that
// move between heartbeats changed (LoadAvg, KeyboardIdle): the small
// delta of the production mix. It never changes whom the machine
// accepts when applied to a background machine, whose refusal rests on
// DayTime, the group lists and Untrusted.
func (g *Gen) Churn(ad *classad.Ad) *classad.Ad {
	out := ad.Copy()
	out.SetReal("LoadAvg", 1.5*g.rng.Float64())
	out.SetInt("KeyboardIdle", int64(g.between(0, 50000)))
	return out
}

const jobTemplate = `[
    Type           = "Job";
    QDate          = %d;
    CompletionDate = 0;
    Cmd            = %q;
    WantCheckpoint = 1;
    Iwd            = %q;
    Args           = %q;
    Memory         = %d;
    ImageSize      = %d;
    Rank       = KFlops/1E3 + other.Memory/32;
    Constraint = other.Type == "Machine" && Arch == %q
              && OpSys == %q && Disk >= %d
              && other.Memory >= self.Memory
              && %s;
]`

// Job returns a Figure 2 job ad for plat. Its constraint's last
// conjunct decides how much the offer index can do for it. Normally it
// asks for an unclaimed machine, an indexable equality that prunes the
// busy machines of the platform. With unindexable set it
// is an arithmetic bound the index cannot decide, so every machine of
// the platform with enough Memory and Disk must be evaluated. Every
// LiveMachine on plat satisfies the job. The CA stamps Owner and JobId
// at submission.
func (g *Gen) Job(plat Platform, unindexable bool) *classad.Ad {
	cmds := []string{"run_sim", "mc_sweep", "render", "fold"}
	cmd := cmds[g.rng.Intn(len(cmds))]
	last := `other.State == "Unclaimed"`
	if unindexable {
		last = fmt.Sprintf("other.Mips * 1000 + other.KFlops >= %d", g.between(20000, 50000))
	}
	return classad.MustParse(fmt.Sprintf(jobTemplate,
		886799469+g.rng.Intn(1<<20),
		cmd,
		fmt.Sprintf("/usr/work/%s%d", cmd, g.rng.Intn(100)),
		fmt.Sprintf("-Q %d %d %d", g.rng.Intn(32), g.between(100, 9999), g.rng.Intn(20)),
		g.pick([]int{16, 24, 31, 32, 48}),
		g.between(1000, 40000),
		plat.Arch, plat.OpSys, g.between(2000, 50000), last))
}

// Query returns a cstatus-style one-way query and the attribute
// projection a status tool would ask for: machines of one platform
// with at least some memory and a low load.
func (g *Gen) Query() (query *classad.Ad, projection []string) {
	p := Platforms[g.rng.Intn(len(Platforms))]
	query = classad.MustParse(fmt.Sprintf(
		`[ Constraint = other.Type == "Machine" && other.Arch == %q && other.OpSys == %q && other.Memory >= %d && other.LoadAvg < %.2f ]`,
		p.Arch, p.OpSys, g.pick([]int{64, 128, 256}), 0.1+0.2*g.rng.Float64()))
	return query, []string{"Name", "Arch", "OpSys", "Memory", "LoadAvg", "State"}
}
