package modelcheck

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/obs"
)

// canonicalConfig is the pool `make mc` checks on every run: two
// machines, two single-unit jobs, two negotiators racing for the
// lease, and one clock tick that can depose a leader mid-flight.
// Small enough to exhaust, rich enough that every safety invariant has
// something to bite on: concurrent cycles, message reordering, ticket
// staleness, lease takeover.
func canonicalConfig() Config {
	return Config{
		Machines: []MachineSpec{
			{Name: "m1", Ad: `[ Type = "Machine"; Name = "m1"; Memory = 32 ]`},
			{Name: "m2", Ad: `[ Type = "Machine"; Name = "m2"; Memory = 64 ]`},
		},
		Jobs: []JobSpec{
			{Owner: "alice", Work: 1, Ad: `[ Type = "Job" ]`},
			{Owner: "bob", Work: 1, Ad: `[ Type = "Job" ]`},
		},
		Negotiators: []string{"neg1", "neg2"},
		MaxTicks:    1,
	}
}

// TestExhaustiveSmallPoolInvariants is the `make mc-short` gate: the
// canonical pool, explored exhaustively to the depth bound, holds
// every safety invariant. -short trims the depth for the inner dev
// loop; MC_FULL=1 (what `make mc` sets) deepens it. The daemons answer
// through netx.Server.step, so no schedule may make a handler answer
// nil or with a request (netx_bad_replies_total), nor deliver a
// lifecycle envelope without its job's trace
// (netx_untraced_lifecycle_total).
func TestExhaustiveSmallPoolInvariants(t *testing.T) {
	reg := obs.NewRegistry()
	netx.Instrument(reg)
	defer netx.Instrument(nil)
	cfg := canonicalConfig()
	cfg.MaxDepth = 9
	cfg.MaxSchedules = 400000
	if os.Getenv("MC_FULL") != "" {
		cfg.MaxDepth = 11
		cfg.MaxSchedules = 0
	}
	start := time.Now() //determguard:ok harness wall-time for the log line below; never enters replayed state
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d schedules over %d distinct states (deepest %d, truncated %v) in %v",
		res.Schedules, res.States, res.Deepest, res.Truncated, time.Since(start)) //determguard:ok harness wall-time log only
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %v\nschedule: %v", v, v.Schedule)
	}
	if res.Schedules < 10000 {
		t.Errorf("explored only %d schedules; the bound is supposed to cover >= 10000", res.Schedules)
	}
	if n := reg.Counter("netx_bad_replies_total").Value(); n != 0 {
		t.Errorf("netx_bad_replies_total = %d over the explored schedules, want 0", n)
	}
	if n := reg.Counter("netx_untraced_lifecycle_total").Value(); n != 0 {
		t.Errorf("netx_untraced_lifecycle_total = %d over the explored schedules, want 0", n)
	}
}

// TestReplayIsDeterministic: the daemons run on the in-process
// transport with no goroutine and no wall clock in replayed state, so
// exploring the same space twice walks the same schedules to the same
// states.
func TestReplayIsDeterministic(t *testing.T) {
	cfg := canonicalConfig()
	cfg.MaxDepth = 9
	first, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Schedules != second.Schedules || first.States != second.States ||
		first.Deepest != second.Deepest || len(first.Violations) != len(second.Violations) {
		t.Fatalf("two explorations differ: %+v against %+v", first, second)
	}
	for i, v := range first.Violations {
		if w := second.Violations[i]; v.String() != w.String() || fmt.Sprint(v.Schedule) != fmt.Sprint(w.Schedule) {
			t.Fatalf("violation %d differs: %v at %v against %v at %v", i, v, v.Schedule, w, w.Schedule)
		}
	}
	t.Logf("both explorations: %d schedules, %d states", first.Schedules, first.States)
}

// TestRenderTraceIsDeterministic: two renders of one schedule read the
// same, though each replay mints its own random MATCH sessions.
func TestRenderTraceIsDeterministic(t *testing.T) {
	schedule := []Action{{Op: "advertise"}, {Op: "submit"}, {Op: "negotiate"}, {Op: "deliver"},
		{Op: "submit", Arg: 1}, {Op: "negotiate"}, {Op: "deliver_lost"}}
	first, err := RenderTrace(canonicalConfig(), schedule)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RenderTrace(canonicalConfig(), schedule)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("two renders differ:\n%s\nagainst\n%s", first, second)
	}
	if !strings.Contains(first, "session=s1") {
		t.Errorf("rendered trace names no session:\n%s", first)
	}
}

// TestLivenessCanonicalPool: under fair scheduling, both finite jobs
// of the canonical pool complete (MC201 holds on main).
func TestLivenessCanonicalPool(t *testing.T) {
	res, err := CheckLiveness(canonicalConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("liveness violated: %v\n%s", res.Violation,
			strings.Join(res.Violation.Trace, "\n"))
	}
	t.Logf("all obligations served in %d fair rounds", res.Rounds)
}

// TestUsageAcrossTakeover pins the deferred-verdict window through the
// shipped negotiators: neg1 matches alice's job, the claim is granted
// and charged to neg1's table, the clock passes neg1's lease, and neg2
// takes over and loads the pool's usage. The charge survives when neg1
// ran one more cycle, which published it, after the verdict; it is
// lost when the verdict came after neg1's last publish. Either way the
// claim stands and neg1's own table keeps the unit.
func TestUsageAcrossTakeover(t *testing.T) {
	cfg := canonicalConfig()
	sys, err := newSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The unit decays from neg1's publish to neg2's load, one tick.
	decayed := math.Pow(0.5, float64(collector.DefaultLeaseTTL+1)/matchmaker.DefaultHalfLife)
	for _, tc := range []struct {
		name     string
		schedule []Action
		want     float64
	}{
		{"published", []Action{{Op: "advertise"}, {Op: "submit"}, {Op: "negotiate"}, {Op: "deliver"},
			{Op: "negotiate"}, {Op: "tick"}, {Op: "negotiate", Arg: 1}}, 1},
		{"unpublished", []Action{{Op: "advertise"}, {Op: "submit"}, {Op: "negotiate"}, {Op: "negotiate"},
			{Op: "deliver"}, {Op: "tick"}, {Op: "negotiate", Arg: 1}}, 0},
	} {
		w := sys.newWorld(nil)
		for _, a := range tc.schedule {
			w.apply(a)
		}
		trace := strings.Join(w.trace, "\n")
		if len(w.violations) != 0 {
			t.Fatalf("%s: %v\n%s", tc.name, w.violations, trace)
		}
		if w.job(0).Status != agent.JobRunning || w.charges != 1 {
			t.Fatalf("%s: alice/job1 is %s after %d charges, want Running after 1\n%s",
				tc.name, w.job(0).Status, w.charges, trace)
		}
		if leader, epoch := w.negs[1].Leader(); !leader || epoch != 2 {
			t.Fatalf("%s: neg2 leads %v at epoch %d, want epoch 2\n%s", tc.name, leader, epoch, trace)
		}
		if got := w.negs[1].Usage().Effective("alice"); got < tc.want*decayed || got > tc.want {
			t.Errorf("%s: neg2 loaded %g of alice's usage, want %g within one tick's decay", tc.name, got, tc.want)
		}
		if got := w.negs[0].Usage().Effective("alice"); got != 1 {
			t.Errorf("%s: neg1 holds %g of alice's usage, want 1", tc.name, got)
		}
	}
}

// TestNegotiatorAdPerManager: each manager publishes its own
// Negotiator ad, named after its HA identity, so after a takeover the
// store holds one ad per negotiator that led, and a leader that takes
// the lease back loads the usage of the highest Epoch among them, not
// its own stale ad. Alice's unit is charged under neg2's epoch 2; neg1,
// whose own ad still says epoch 1 and no usage, must load it at epoch 3.
func TestNegotiatorAdPerManager(t *testing.T) {
	cfg := canonicalConfig()
	sys, err := newSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := sys.newWorld(nil)
	epochs := func() map[string]int64 {
		out := map[string]int64{}
		for _, ad := range w.store.Query(classad.MustParse(`[ Constraint = other.Type == "Negotiator" ]`)) {
			name, _ := ad.Eval(classad.AttrName).StringVal()
			out[name], _ = ad.Eval("Epoch").IntVal()
		}
		return out
	}
	for _, a := range []Action{{Op: "negotiate"}, {Op: "tick"}, {Op: "negotiate", Arg: 1}} {
		w.apply(a)
	}
	if got := epochs(); len(got) != 2 || got["negotiator/neg1"] != 1 || got["negotiator/neg2"] != 2 {
		t.Fatalf("after negotiate(0) tick negotiate(1) the Negotiator ads are %v, want neg1 at epoch 1 and neg2 at epoch 2", got)
	}
	for _, a := range []Action{{Op: "advertise"}, {Op: "submit"}, {Op: "negotiate", Arg: 1}, {Op: "deliver"},
		{Op: "negotiate", Arg: 1}, {Op: "tick"}, {Op: "negotiate"}} {
		w.apply(a)
	}
	trace := strings.Join(w.trace, "\n")
	if len(w.violations) != 0 {
		t.Fatalf("%v\n%s", w.violations, trace)
	}
	if leader, epoch := w.negs[0].Leader(); !leader || epoch != 3 {
		t.Fatalf("neg1 leads %v at epoch %d, want epoch 3\n%s", leader, epoch, trace)
	}
	if got := units(w.negs[0])["alice"]; got != 1 {
		t.Errorf("neg1 took the lease back holding %d of alice's units, want the 1 neg2's epoch-2 ad holds\n%s", got, trace)
	}
}

// livelockConfig reconstructs ROADMAP item 1: machine A is claimed by
// an infinite job, its idle twin B ties every rank, and a late-arriving
// job must choose between them every cycle. mutant seeds the engines.
func livelockConfig(mutant matchmaker.IncrementalHooks) Config {
	return Config{
		Machines: []MachineSpec{
			{Name: "A", Ad: `[ Type = "Machine"; Name = "A"; Memory = 32 ]`},
			{Name: "B", Ad: `[ Type = "Machine"; Name = "B"; Memory = 32 ]`},
		},
		Jobs: []JobSpec{
			// The incumbent: grabs A in round 1 and never finishes.
			{Owner: "alice", Work: -1, Ad: `[ Type = "Job" ]`},
			// The victim: arrives once A is claimed, ties A and B on
			// rank. Pre-fix, the earliest-index tie-break picked the
			// claimed A every cycle and the claim bounced every cycle.
			{Owner: "bob", Work: 1, Delay: 1, Ad: `[ Type = "Job" ]`},
		},
		Negotiators: []string{"neg1"},
		EngineHooks: mutant,
	}
}

// mirroredLivelockConfig is livelockConfig with the claimed machine
// after its idle twin in key order: B ranks every job 1 by a literal,
// so alice takes it first, and the legacy tie-break, blind to claimed
// state, hands bob B on offer rank over the earlier idle A. The scan
// passes over a twin of a run only when better() would rank it below
// the incumbent; it must read claimed state as better() does, or it
// passes over B and hides the livelock.
func mirroredLivelockConfig(mutant matchmaker.IncrementalHooks) Config {
	cfg := livelockConfig(mutant)
	cfg.Machines[1].Ad = `[ Type = "Machine"; Name = "B"; Memory = 32; Rank = 1 ]`
	return cfg
}

// TestLivelockRegression mechanically rediscovers the claimed-offer
// livelock (ROADMAP item 1) as an MC201 counterexample under either
// engine mutant that lets the claimed A beat its idle twin B — the
// legacy tie-break, which ignores claimed state, and StopBeforeTies,
// whose walk takes A (first of the equal-rank run) and never tries B —
// and proves the healthy engine resolves it. This is the model
// checker's version of TestForensicsClaimedOfferLivelock, with the loop
// detected rather than asserted.
func TestLivelockRegression(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		claimed string
	}{
		{"LegacyClaimedTieBreak", livelockConfig(matchmaker.IncrementalHooks{LegacyClaimedTieBreak: true}), "A"},
		{"StopBeforeTies", livelockConfig(matchmaker.IncrementalHooks{StopBeforeTies: true}), "A"},
		{"LegacyClaimedTieBreak/mirrored", mirroredLivelockConfig(matchmaker.IncrementalHooks{LegacyClaimedTieBreak: true}), "B"},
	} {
		res, err := CheckLiveness(tc.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil || res.Violation.Code != CodeStarvation {
			t.Fatalf("%s: want %s, got %v", tc.name, CodeStarvation, res.Violation)
		}
		if len(res.Starved) != 1 || res.Starved[0] != "bob/job1" {
			t.Errorf("%s: starved = %v, want bob/job1", tc.name, res.Starved)
		}
		trace := strings.Join(res.Violation.Trace, "\n")
		if !strings.Contains(trace, "MATCH bob/job1 -> "+tc.claimed) ||
			!strings.Contains(trace, "not granted (claimed by alice") {
			t.Errorf("%s: counterexample trace does not show the bounce loop:\n%s", tc.name, trace)
		}
		t.Logf("%s: livelock rediscovered: %v", tc.name, res.Violation)
	}

	for _, cfg := range []Config{livelockConfig(matchmaker.IncrementalHooks{}), mirroredLivelockConfig(matchmaker.IncrementalHooks{})} {
		fixed, err := CheckLiveness(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fixed.Violation != nil {
			t.Fatalf("unclaimed-over-claimed tie-break still livelocks: %v\n%s",
				fixed.Violation, strings.Join(fixed.Violation.Trace, "\n"))
		}
	}
}

// TestPreemptionReachesIncumbent: a machine that ranks bob's jobs
// above alice's preempts alice's claim for bob's, and the resource
// daemon's PREEMPT returns alice's job to her customer daemon's queue
// over the transport. The space around it holds every invariant.
func TestPreemptionReachesIncumbent(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Name: "m1", Ad: `[ Type = "Machine"; Name = "m1"; Rank = other.Owner == "bob" ? 1 : 0 ]`},
		},
		Jobs: []JobSpec{
			{Owner: "alice", Work: 1, Ad: `[ Type = "Job" ]`},
			{Owner: "bob", Work: 1, Ad: `[ Type = "Job" ]`},
		},
		Negotiators: []string{"neg1"},
		MaxDepth:    10,
	}
	rendered, err := RenderTrace(cfg, []Action{
		{Op: "advertise"}, {Op: "submit"}, {Op: "negotiate"}, {Op: "deliver"},
		{Op: "advertise"}, {Op: "submit", Arg: 1}, {Op: "negotiate"}, {Op: "deliver"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rendered, "[ra] preempt_sent customer=alice") ||
		!strings.Contains(rendered, "[ca] preempted job=1") ||
		!strings.Contains(rendered, "bob/job1 is Running") {
		t.Errorf("rendered trace does not show bob preempting alice:\n%s", rendered)
	}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("preemption space violates: %v", res.Violations)
	}
}

// TestExploreRespectsMaxSchedules: the truncation valve reports
// itself.
func TestExploreRespectsMaxSchedules(t *testing.T) {
	cfg := canonicalConfig()
	cfg.MaxDepth = 8
	cfg.MaxSchedules = 500
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Schedules > 500 {
		t.Fatalf("truncation: %+v", res)
	}
}

// TestConfigValidation: malformed scenarios fail loudly, not deep in a
// replay.
func TestConfigValidation(t *testing.T) {
	if _, err := Explore(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := canonicalConfig()
	cfg.Machines[0].Ad = `[ Name = "mismatch" ]`
	if _, err := Explore(cfg); err == nil {
		t.Error("machine Name mismatch accepted")
	}
	cfg = canonicalConfig()
	cfg.Jobs[0].Ad = `[ not classad`
	if _, err := Explore(cfg); err == nil {
		t.Error("unparsable job ad accepted")
	}
}
