package analysis

import (
	"strings"
	"testing"

	"repro/internal/classad"
)

func mustAd(t *testing.T, src string) *classad.Ad {
	t.Helper()
	ad, err := classad.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return ad
}

func codesOf(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Code)
	}
	return out
}

func TestAnalyzeMatchContradiction(t *testing.T) {
	// Paper §3.2's mutual-constraint contradiction: the job wants big
	// memory, the machine only takes small jobs.
	job := mustAd(t, `[
		Type = "job";
		Memory = 2048;
		Constraint = other.Memory >= 2048;
	]`)
	machine := mustAd(t, `[
		Type = "machine";
		Memory = 512;
		Constraint = other.Memory <= 1024;
	]`)
	rep := AnalyzeMatch(job, machine, nil)
	if !rep.NeverMatch {
		t.Fatalf("NeverMatch = false, want true; diags: %v", rep.Diags())
	}
	// The job's constraint fails against the machine (512 < 2048) and
	// the machine's fails against the job (2048 > 1024): both sides.
	if !hasCode(rep.LeftDiags, CodePairContradiction) {
		t.Errorf("left diags missing CAD301: %v", codesOf(rep.LeftDiags))
	}
	if !hasCode(rep.RightDiags, CodePairContradiction) {
		t.Errorf("right diags missing CAD301: %v", codesOf(rep.RightDiags))
	}
	// Soundness: the evaluator agrees.
	if classad.Match(job, machine).Matched {
		t.Fatal("evaluator says the pair matches; verdict is unsound")
	}
}

func TestAnalyzeMatchCompatiblePairIsClean(t *testing.T) {
	job := mustAd(t, `[
		Type = "job";
		Memory = 31;
		Constraint = other.Memory >= 31 && other.Arch == "intel";
		Rank = other.Mips;
	]`)
	machine := mustAd(t, `[
		Type = "machine";
		Memory = 64;
		Arch = "intel";
		Mips = 110;
		Constraint = other.Memory <= 64;
		Rank = 0;
	]`)
	rep := AnalyzeMatch(job, machine, nil)
	if rep.NeverMatch || len(rep.Diags()) != 0 {
		t.Fatalf("clean pair produced diags: %v", rep.Diags())
	}
	if !classad.Match(job, machine).Matched {
		t.Fatal("fixture pair should actually match")
	}
}

func TestAnalyzeMatchUndefinedConjunct(t *testing.T) {
	// The machine never advertises Gpus: other.Gpus is a deterministic
	// undefined, so the conjunct can never be true.
	job := mustAd(t, `[
		Constraint = other.Gpus >= 1;
	]`)
	machine := mustAd(t, `[ Type = "machine"; Memory = 64 ]`)
	rep := AnalyzeMatch(job, machine, nil)
	if !rep.NeverMatch || !hasCode(rep.LeftDiags, CodePairContradiction) {
		t.Fatalf("want CAD301 for undefined conjunct, got %v", rep.Diags())
	}
	if got := rep.LeftDiags[0].Message; !strings.Contains(got, "undefined") {
		t.Errorf("message should name the undefined value: %q", got)
	}
}

func TestAnalyzeMatchCrossTypeClash(t *testing.T) {
	// SAMGrid's classic: Memory advertised as a string. The comparison
	// can only yield error — flagged CAD302 even though the verdict
	// names the type, not just the value.
	job := mustAd(t, `[
		Constraint = other.Memory >= 512;
	]`)
	machine := mustAd(t, `[ Name = "bad.example.com"; Memory = "64" ]`)
	rep := AnalyzeMatch(job, machine, nil)
	if !rep.NeverMatch || !hasCode(rep.LeftDiags, CodeCrossTypeClash) {
		t.Fatalf("want CAD302, got %v", rep.Diags())
	}
	msg := rep.LeftDiags[0].Message
	if !strings.Contains(msg, "Memory") || !strings.Contains(msg, "bad.example.com") {
		t.Errorf("CAD302 message should name the attribute and peer: %q", msg)
	}
	if classad.Match(job, machine).Matched {
		t.Fatal("evaluator says the pair matches; CAD302 unsound")
	}
}

func TestAnalyzeMatchRankUndefined(t *testing.T) {
	job := mustAd(t, `[
		Constraint = true;
		Rank = other.Mips;
	]`)
	machine := mustAd(t, `[ Type = "machine" ]`)
	rep := AnalyzeMatch(job, machine, nil)
	if rep.NeverMatch {
		t.Fatalf("rank finding must not block the match: %v", rep.Diags())
	}
	if !hasCode(rep.LeftDiags, CodePairRankUndefined) {
		t.Fatalf("want CAD303, got %v", rep.Diags())
	}
	if rep.LeftDiags[0].Severity != Warning {
		t.Errorf("CAD303 severity = %v, want Warning", rep.LeftDiags[0].Severity)
	}
}

func TestAnalyzeMatchImpureConjunctStaysQuiet(t *testing.T) {
	// random() could be anything; no verdict may be issued even though
	// one sampled evaluation happens to be false.
	job := mustAd(t, `[
		Constraint = random(100) > 200 && other.Memory >= 1;
	]`)
	machine := mustAd(t, `[ Memory = 64 ]`)
	rep := AnalyzeMatch(job, machine, nil)
	for _, d := range rep.Diags() {
		if d.Code == CodePairContradiction && strings.Contains(d.Expr, "random") {
			t.Fatalf("issued verdict over impure conjunct: %v", d)
		}
	}
}

func TestAnalyzeMatchNonZeroNumberConjunctNotFlagged(t *testing.T) {
	// A sole numeric conjunct of 5 fails the top-level constraint test
	// only because there is no coercion at the top; inside `5 && true`
	// it would pass. neverTruthy must not flag non-zero numbers.
	job := mustAd(t, `[ Constraint = 5 && other.Memory >= 1 ]`)
	machine := mustAd(t, `[ Memory = 64 ]`)
	rep := AnalyzeMatch(job, machine, nil)
	if hasCode(rep.LeftDiags, CodePairContradiction) {
		t.Fatalf("non-zero numeric conjunct flagged: %v", rep.Diags())
	}
}

func TestAnalyzeMatchCycleIsDeterministic(t *testing.T) {
	// A reference cycle evaluates to a deterministic error, so the
	// conjunct is provably never true.
	job := mustAd(t, `[ A = B; B = A; Constraint = A ]`)
	machine := mustAd(t, `[ Memory = 64 ]`)
	rep := AnalyzeMatch(job, machine, nil)
	if !hasCode(rep.LeftDiags, CodePairContradiction) {
		t.Fatalf("cycle conjunct not flagged: %v", rep.Diags())
	}
	if classad.Match(job, machine).Matched {
		t.Fatal("evaluator matched a cyclic constraint")
	}
}

func TestAnalyzeMatchNilAds(t *testing.T) {
	rep := AnalyzeMatch(nil, mustAd(t, `[ X = 1 ]`), nil)
	if rep.NeverMatch || len(rep.Diags()) != 0 {
		t.Fatalf("nil ad should yield empty report: %v", rep.Diags())
	}
}

func TestProvablyNeverTrue(t *testing.T) {
	self := mustAd(t, `[ Memory = 2048 ]`)
	other := mustAd(t, `[ Memory = 512 ]`)
	env := classad.DefaultEnv()
	tests := []struct {
		expr string
		want bool
	}{
		{`other.Memory >= self.Memory`, true}, // 512 >= 2048: false
		{`other.Memory >= 100`, false},        // true
		{`other.Gpus >= 1`, true},             // undefined
		{`random(10) < 100`, false},           // impure
		{`5`, false},                          // non-zero number coerces true in &&
		{`0`, true},                           // zero never coerces true
		{`"str"`, true},                       // non-coercible type
		{`time() > 0 && false`, true},         // domination: folds to false, pure
	}
	for _, tc := range tests {
		e, err := classad.ParseExpr(tc.expr)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", tc.expr, err)
		}
		if got := ProvablyNeverTrue(e, self, other, env); got != tc.want {
			t.Errorf("ProvablyNeverTrue(%q) = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestIsCounterpart(t *testing.T) {
	job := mustAd(t, `[ Type = "job" ]`)
	job2 := mustAd(t, `[ Type = "Job" ]`)
	machine := mustAd(t, `[ Type = "machine" ]`)
	untyped := mustAd(t, `[ X = 1 ]`)
	if isCounterpart(job, job2) {
		t.Error("two jobs (case-folded) are not counterparts")
	}
	if !isCounterpart(job, machine) {
		t.Error("job and machine are counterparts")
	}
	if !isCounterpart(job, untyped) {
		t.Error("an untyped ad is a potential counterpart")
	}
	negotiator := mustAd(t, `[ Type = "Negotiator"; Name = "negotiator@pool" ]`)
	if isCounterpart(machine, negotiator) || isCounterpart(negotiator, untyped) {
		t.Error("service self-ads never pair for matchmaking")
	}
}
