package matchmaker

import (
	"strings"
	"testing"

	"repro/internal/classad"
)

func TestSuggestNumericRange(t *testing.T) {
	req := classad.MustParse(`[
		Owner = "u";
		Constraint = other.Memory >= 512 && other.Arch == "INTEL";
	]`)
	a := Analyze(req, smallPool(), nil) // memories 64, 128, 256
	if !a.Unsatisfiable {
		t.Fatal("512MB demand should be unsatisfiable")
	}
	if a.Clauses[0].Suggestion != "pool's Memory ranges 64..256" {
		t.Errorf("suggestion = %q", a.Clauses[0].Suggestion)
	}
	if !strings.Contains(a.String(), "hint: pool's Memory ranges 64..256") {
		t.Errorf("report:\n%s", a)
	}
}

func TestSuggestStringValues(t *testing.T) {
	req := classad.MustParse(`[
		Owner = "u";
		Constraint = other.Arch == "VAX";
	]`)
	a := Analyze(req, smallPool(), nil)
	if !a.Unsatisfiable {
		t.Fatal("VAX should be unsatisfiable")
	}
	want := `pool offers Arch in {"INTEL", "SPARC"}`
	if a.Clauses[0].Suggestion != want {
		t.Errorf("suggestion = %q, want %q", a.Clauses[0].Suggestion, want)
	}
}

func TestSuggestMissingAttribute(t *testing.T) {
	req := classad.MustParse(`[
		Owner = "u";
		Constraint = other.GPUs >= 1;
	]`)
	a := Analyze(req, smallPool(), nil)
	if a.Clauses[0].Suggestion != "no offer defines GPUs at all" {
		t.Errorf("suggestion = %q", a.Clauses[0].Suggestion)
	}
}

func TestSuggestUsesResidual(t *testing.T) {
	// The bound comes from the job's own attribute: partial
	// evaluation must fold self.Memory before shape-matching.
	req := classad.MustParse(`[
		Owner = "u";
		Memory = 2048;
		Constraint = other.Memory >= self.Memory;
	]`)
	a := Analyze(req, smallPool(), nil)
	if a.Clauses[0].Suggestion != "pool's Memory ranges 64..256" {
		t.Errorf("suggestion = %q", a.Clauses[0].Suggestion)
	}
}

func TestSuggestReversedOperands(t *testing.T) {
	req := classad.MustParse(`[
		Owner = "u";
		Constraint = 512 <= other.Memory;
	]`)
	a := Analyze(req, smallPool(), nil)
	if a.Clauses[0].Suggestion != "pool's Memory ranges 64..256" {
		t.Errorf("suggestion = %q", a.Clauses[0].Suggestion)
	}
}

func TestSuggestUnqualifiedName(t *testing.T) {
	// A name the request does not define is the offer's, exactly as
	// the index reads it: the unqualified spelling earns the same hint
	// as other.Memory >= 64.
	req := classad.MustParse(`[
		Owner = "u";
		Constraint = Memory >= 64;
	]`)
	pool := []*classad.Ad{machine("a", "INTEL", 32), machine("b", "SPARC", 32)}
	a := Analyze(req, pool, nil)
	if a.Clauses[0].Suggestion != "pool's Memory ranges 32..32" {
		t.Errorf("suggestion = %q", a.Clauses[0].Suggestion)
	}
}

func TestNoSuggestionForComplexClauses(t *testing.T) {
	// A clause that is not a simple bound gets no hint (and no
	// crash).
	req := classad.MustParse(`[
		Owner = "u";
		Constraint = other.Memory + other.Disk >= 999999999;
	]`)
	a := Analyze(req, smallPool(), nil)
	if !a.Unsatisfiable {
		t.Fatal("should be unsatisfiable")
	}
	if a.Clauses[0].Suggestion != "" {
		t.Errorf("unexpected suggestion %q", a.Clauses[0].Suggestion)
	}
	// Satisfiable clauses never get hints.
	ok := classad.MustParse(`[ Owner = "u"; Constraint = other.Memory >= 64 ]`)
	a = Analyze(ok, smallPool(), nil)
	if a.Clauses[0].Suggestion != "" {
		t.Errorf("hint on satisfiable clause: %q", a.Clauses[0].Suggestion)
	}
}
