package matchmaker

import (
	"strings"
	"testing"

	"repro/internal/classad"
	"repro/internal/classad/analysis"
)

// TestAnalyzeStaticUnsatisfiable: the analyzer's CAD201 verdict is
// reused — the request is reported unsatisfiable even when the pool is
// empty, because no pool could ever satisfy it.
func TestAnalyzeStaticUnsatisfiable(t *testing.T) {
	req := classad.MustParse(`[ Name = "doomed"; Type = "Job";
		Constraint = other.Memory > 64 && other.Memory < 32 ]`)
	a := Analyze(req, nil, nil)
	if !a.Unsatisfiable {
		t.Fatal("statically unsatisfiable request not marked Unsatisfiable")
	}
	if len(analysis.Unsatisfiable(a.Static)) == 0 {
		t.Fatalf("no CAD201 in Static: %v", a.Static)
	}
	var attached bool
	for _, c := range a.Clauses {
		if c.StaticVerdict != "" {
			attached = true
		}
	}
	if !attached {
		t.Errorf("verdict not attached to any clause: %+v", a.Clauses)
	}
	out := a.String()
	if !strings.Contains(out, "static:") {
		t.Errorf("String() does not render the static verdict:\n%s", out)
	}
	if !strings.Contains(out, "unsatisfiable") {
		t.Errorf("String() verdict missing:\n%s", out)
	}
}

// TestAnalyzeSelfBoundNotUnsatisfiable: an unqualified name the
// request defines — here by a non-ground expression — is the request's
// attribute, not the offer's, so `Memory < 32` does not contradict
// `other.Memory > 64`; the pair matches, and no analyzer may call the
// request unsatisfiable.
func TestAnalyzeSelfBoundNotUnsatisfiable(t *testing.T) {
	req := classad.MustParse(`[ Name = "selfbound"; Type = "Job"; Memory = other.Disk;
		Constraint = other.Type == "Machine" && other.Memory > 64 && Memory < 32 ]`)
	offer := classad.MustParse(`[ Name = "m1"; Type = "Machine"; Memory = 128; Disk = 10;
		Constraint = true ]`)
	if !classad.Match(req, offer).Matched {
		t.Fatal("the pair should match")
	}
	a := Analyze(req, []*classad.Ad{offer}, nil)
	if a.Unsatisfiable || a.Compatible != 1 {
		t.Fatalf("Unsatisfiable = %v, Compatible = %d, want false, 1\n%s", a.Unsatisfiable, a.Compatible, a)
	}
}

// TestAnalyzeStaticExtras: findings not tied to a clause (here a
// constant Rank) still surface in the report.
func TestAnalyzeStaticExtras(t *testing.T) {
	req := classad.MustParse(`[ Name = "flat"; Type = "Job"; Rank = 0;
		Constraint = other.Memory >= 32 ]`)
	offer := classad.MustParse(`[ Name = "m1"; Type = "Machine"; Memory = 64;
		Constraint = true ]`)
	a := Analyze(req, []*classad.Ad{offer}, nil)
	if a.Unsatisfiable {
		t.Fatal("satisfiable request marked Unsatisfiable")
	}
	found := false
	for _, d := range a.Static {
		if d.Code == analysis.CodeConstantRank {
			found = true
		}
	}
	if !found {
		t.Fatalf("constant Rank not in Static: %v", a.Static)
	}
	if out := a.String(); !strings.Contains(out, "static analysis of the request ad:") {
		t.Errorf("String() omits static extras:\n%s", out)
	}
}
