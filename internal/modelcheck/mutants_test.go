package modelcheck

import (
	"strings"
	"testing"

	"repro/internal/pool"
)

// Seeded-mutant self-test: each hook plants one protocol bug, and the
// checker must rediscover it as the expected MC code with a schedule
// that replays. A model checker that cannot catch planted bugs proves
// nothing by passing on main.

// epochMutantConfig is the deposed-leader scenario: neg1 matches job1
// to A at epoch 1, the clock tick deposes it, neg2 matches job2 to B
// at epoch 2, and the two MATCH notifications race to the customer.
// Both jobs are alice's, because the fence is per customer: a MATCH is
// stale only against epochs its own customer has seen. Constraints pin
// each job to its machine so both matches can be in flight at once
// with both tickets live.
func epochMutantConfig(disableFence bool) Config {
	return Config{
		Machines: []MachineSpec{
			{Name: "A", Ad: `[ Type = "Machine"; Name = "A"; Memory = 32 ]`},
			{Name: "B", Ad: `[ Type = "Machine"; Name = "B"; Memory = 64 ]`},
		},
		Jobs: []JobSpec{
			{Owner: "alice", Work: 1, Ad: `[ Type = "Job"; Constraint = other.Memory < 64 ]`},
			{Owner: "alice", Work: 1, Ad: `[ Type = "Job"; Constraint = other.Memory >= 64 ]`},
		},
		Negotiators:     []string{"neg1", "neg2"},
		MaxTicks:        1,
		MaxDepth:        9,
		StopOnViolation: true,
		DaemonHooks:     pool.Hooks{DisableEpochFence: disableFence},
	}
}

func findCode(t *testing.T, res *Result, code string) *Violation {
	t.Helper()
	for _, v := range res.Violations {
		if v.Code == code {
			return v
		}
	}
	t.Fatalf("no %s violation found; got %v (after %d schedules)", code, res.Violations, res.Schedules)
	return nil
}

// TestMutantStaleEpochClaim: with the customer daemon's epoch fence
// disabled, the explorer finds a schedule where a deposed negotiator's
// MATCH is honoured after the new leader's — MC102 — and the
// counterexample replays and renders. With the fence in place the same
// space is clean, which is the point of the fence.
func TestMutantStaleEpochClaim(t *testing.T) {
	res, err := Explore(epochMutantConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	v := findCode(t, res, CodeStaleEpochClaim)
	t.Logf("MC102 rediscovered after %d schedules: %v", res.Schedules, v)

	rendered, err := RenderTrace(epochMutantConfig(true), v.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rendered, "counterexample MC102") ||
		!strings.Contains(rendered, "stale epoch") {
		t.Errorf("rendered trace missing the violation:\n%s", rendered)
	}
	if !strings.Contains(rendered, "[matchmaker] match ") || !strings.Contains(rendered, "[ca] claim_ok ") {
		t.Errorf("rendered trace carries no matchmaker or customer daemon entries:\n%s", rendered)
	}

	clean, err := Explore(epochMutantConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Violations) != 0 {
		t.Fatalf("fence enabled but violations found: %v", clean.Violations)
	}
}

// TestMutantDoubleCharge: a negotiator that bills two units per
// acknowledged claim breaks ledger conservation on the very first
// grant — MC104.
func TestMutantDoubleCharge(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Name: "m1", Ad: `[ Type = "Machine"; Name = "m1" ]`},
		},
		Jobs: []JobSpec{
			{Owner: "alice", Work: 1, Ad: `[ Type = "Job" ]`},
		},
		Negotiators:     []string{"neg1"},
		MaxDepth:        5,
		StopOnViolation: true,
		DaemonHooks:     pool.Hooks{DoubleCharge: true},
	}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := findCode(t, res, CodeLedgerConservation)
	if !strings.Contains(v.Detail, "2 units charged against 1 granted") {
		t.Errorf("detail = %q", v.Detail)
	}
	rendered, err := RenderTrace(cfg, v.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rendered, "counterexample MC104") {
		t.Errorf("rendered trace missing MC104:\n%s", rendered)
	}

	cfg.DaemonHooks.DoubleCharge = false
	clean, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Violations) != 0 {
		t.Fatalf("unmutated billing violates: %v", clean.Violations)
	}
}

// TestMutantSkipUsagePublish: a negotiator whose Negotiator ad carries
// no usage lets its charges die with its leadership. The explorer finds
// a takeover whose new leader loads a table missing a published charge
// — MC104 — and with the usage published the same space is clean.
func TestMutantSkipUsagePublish(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Name: "m1", Ad: `[ Type = "Machine"; Name = "m1" ]`},
		},
		Jobs: []JobSpec{
			{Owner: "alice", Work: -1, Ad: `[ Type = "Job" ]`},
		},
		Negotiators:     []string{"neg1", "neg2"},
		MaxTicks:        1,
		MaxDepth:        7,
		StopOnViolation: true,
		DaemonHooks:     pool.Hooks{SkipUsagePublish: true},
	}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := findCode(t, res, CodeLedgerConservation)
	if !strings.Contains(v.Detail, "took over at epoch 2 holding 0 of alice's units") {
		t.Errorf("detail = %q", v.Detail)
	}
	rendered, err := RenderTrace(cfg, v.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rendered, "counterexample MC104") || !strings.Contains(rendered, "claim GRANTED") {
		t.Errorf("rendered trace missing the violation or the grant:\n%s", rendered)
	}
	t.Logf("MC104 rediscovered after %d schedules: %v at %v", res.Schedules, v, v.Schedule)

	cfg.DaemonHooks.SkipUsagePublish = false
	clean, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Violations) != 0 {
		t.Fatalf("publishing negotiators violate: %v", clean.Violations)
	}
}

// TestMutantDropClaimRequeue: a customer daemon that stops advertising
// a job whose claim bounced, instead of re-advertising it, starves the
// job forever — MC201 under the fair scheduler. One machine, a two-round incumbent, and a second job
// whose first claim is guaranteed to bounce off the incumbent's claim.
func TestMutantDropClaimRequeue(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Name: "m1", Ad: `[ Type = "Machine"; Name = "m1" ]`},
		},
		Jobs: []JobSpec{
			{Owner: "alice", Work: 2, Ad: `[ Type = "Job" ]`},
			{Owner: "bob", Work: 1, Ad: `[ Type = "Job" ]`},
		},
		Negotiators: []string{"neg1"},
		DaemonHooks: pool.Hooks{DropClaimRequeue: true},
	}
	res, err := CheckLiveness(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Code != CodeStarvation {
		t.Fatalf("want %s, got %v", CodeStarvation, res.Violation)
	}
	if len(res.Starved) != 1 || res.Starved[0] != "bob/job1" {
		t.Errorf("starved = %v, want bob/job1", res.Starved)
	}
	trace := strings.Join(res.Violation.Trace, "\n")
	if !strings.Contains(trace, "deliver MATCH bob/job1 -> m1 (epoch 1): not granted (claimed by alice") ||
		strings.Count(trace, "submit job bob/job1") != 1 {
		t.Errorf("trace does not show bob/job1 bouncing once and never returning:\n%s", trace)
	}

	cfg.DaemonHooks.DropClaimRequeue = false
	clean, err := CheckLiveness(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Violation != nil {
		t.Fatalf("requeueing pool still starves: %v\n%s", clean.Violation,
			strings.Join(clean.Violation.Trace, "\n"))
	}
}

// TestMutantSkipWithdraw: a resource daemon that keeps a claim whose
// CLAIM_REPLY was lost holds the machine for a job its customer saw
// fail and left idle — MC103 — and the counterexample loses that
// reply. With the withdrawal in place the same space is clean.
func TestMutantSkipWithdraw(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Name: "m1", Ad: `[ Type = "Machine"; Name = "m1" ]`},
		},
		Jobs: []JobSpec{
			{Owner: "alice", Work: 1, Ad: `[ Type = "Job" ]`},
		},
		Negotiators:     []string{"neg1"},
		MaxDepth:        5,
		StopOnViolation: true,
		DaemonHooks:     pool.Hooks{SkipWithdraw: true},
	}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := findCode(t, res, CodeClaimExclusive)
	if !strings.Contains(v.Detail, "holds a claim for alice/job1, which its customer has as Idle") {
		t.Errorf("detail = %q", v.Detail)
	}
	if last := v.Schedule[len(v.Schedule)-1]; last.Op != "deliver_lost" {
		t.Errorf("counterexample ends in %v, want the lost reply", last)
	}
	rendered, err := RenderTrace(cfg, v.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rendered, "counterexample MC103") || !strings.Contains(rendered, "claim_failed") {
		t.Errorf("rendered trace missing the violation or the customer's claim_failed:\n%s", rendered)
	}

	cfg.DaemonHooks.SkipWithdraw = false
	clean, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Violations) != 0 {
		t.Fatalf("withdrawing daemon violates: %v", clean.Violations)
	}
}
