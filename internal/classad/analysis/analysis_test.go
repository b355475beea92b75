package analysis

import (
	"strings"
	"testing"

	"repro/internal/classad"
)

func lint(t *testing.T, src string) []Diagnostic {
	t.Helper()
	ad, err := classad.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return AnalyzeAd(ad, nil)
}

func codes(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Code
	}
	return out
}

func hasCode(diags []Diagnostic, code string) bool {
	for _, d := range diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// TestFigureAdsAreClean: the paper's own Figure 1 and Figure 2 ads
// must produce zero diagnostics — the analyzer earns no false
// positives on the reference workload.
func TestFigureAdsAreClean(t *testing.T) {
	for _, src := range []string{classad.Figure1Source, classad.Figure2Source} {
		if diags := lint(t, src); len(diags) != 0 {
			t.Errorf("figure ad flagged:\n%v", diags)
		}
	}
}

// TestStringNumberComparison: §3.1's strict comparison — a string
// against a number is error, never a match.
func TestStringNumberComparison(t *testing.T) {
	diags := lint(t, `[ Memory = 64; Constraint = Memory > "lots" ]`)
	if !hasCode(diags, CodeTypeConflict) {
		t.Fatalf("no CAD001 in %v", codes(diags))
	}
	if !HasErrors(diags) {
		t.Error("type conflict not an error")
	}
}

// TestRelationalBooleansAreError: §3.1 gives booleans equality but no
// order.
func TestRelationalBooleansAreError(t *testing.T) {
	if diags := lint(t, `[ A = true; B = false; Bad = A >= B ]`); !hasCode(diags, CodeTypeConflict) {
		t.Errorf("A >= B not flagged: %v", codes(diags))
	}
	// Equality of booleans is fine.
	if diags := lint(t, `[ A = true; B = false; Ok = A == B ]`); hasCode(diags, CodeTypeConflict) {
		t.Errorf("A == B flagged: %v", diags)
	}
	// Bool coerces against numbers (Figure 1's member(...) * 10).
	if diags := lint(t, `[ R = member(other.Owner, {"a"}) * 10 > 5 ]`); len(diags) != 0 {
		t.Errorf("bool*int coercion flagged: %v", diags)
	}
}

// TestUnknownBuiltinAndArity covers CAD002/CAD003, including the
// did-you-mean suggestion against the builtin table.
func TestUnknownBuiltinAndArity(t *testing.T) {
	diags := lint(t, `[ A = membr(1, {1}); B = strcmp("a") ]`)
	if !hasCode(diags, CodeUnknownBuiltin) || !hasCode(diags, CodeBadArity) {
		t.Fatalf("missing codes in %v", codes(diags))
	}
	for _, d := range diags {
		if d.Code == CodeUnknownBuiltin && !strings.Contains(d.Message, `"member"`) {
			t.Errorf("no did-you-mean for membr: %s", d.Message)
		}
	}
}

// TestBuiltinRowsDecideCallFindings pins the analyzer to the
// evaluator's builtin table where the two once disagreed: min(),
// max(), sum() and avg() evaluate to undefined, not an arity error;
// floor and its kin return a real for 1e300, NaN and INF; random(X)
// and unparse(X) can be undefined. Each message shows the set the
// table declares.
func TestBuiltinRowsDecideCallFindings(t *testing.T) {
	if diags := lint(t, `[ A = min(); B = max(); C = sum(); D = avg() ]`); len(diags) != 0 {
		t.Errorf("empty numeric folds flagged: %v", diags)
	}
	for src, want := range map[string]string{
		`floor(other.Memory) == "x"`:   "left operand is integer or real",
		`ceil(other.Memory) == "x"`:    "left operand is integer or real",
		`random(other.Memory) == "x"`:  `can only evaluate to undefined/error`,
		`unparse(other.Memory) == 1`:   `can only evaluate to undefined/error`,
		`round(other.Memory) == "x"`:   "left operand is integer or real",
		`ceiling(other.Memory) == "x"`: "left operand is integer or real",
	} {
		diags := lint(t, "[ Constraint = "+src+" ]")
		if len(diags) != 1 || diags[0].Code != CodeTypeConflict || !strings.Contains(diags[0].Message, want) {
			t.Errorf("%s: got %v, want one CAD001 saying %q", src, diags, want)
		}
	}
}

// TestSelfNeverFallsBack: §3.1 scoping — self.X does not consult the
// other ad, so a missing attribute is provably undefined; an
// unqualified X may still bind at match time and is not flagged when
// well-known.
func TestSelfNeverFallsBack(t *testing.T) {
	diags := lint(t, `[ Memory = 64; R = self.Memroy ]`)
	if !hasCode(diags, CodeSelfNeverBinds) {
		t.Fatalf("self.Memroy not flagged: %v", codes(diags))
	}
	var found bool
	for _, d := range diags {
		if d.Code == CodeSelfNeverBinds && strings.Contains(d.Message, `"Memory"`) {
			found = true
		}
	}
	if !found {
		t.Error("no did-you-mean suggestion for self.Memroy")
	}
	// Unqualified well-known names resolve against the vocabulary.
	if diags := lint(t, `[ Constraint = KFlops > 1000 ]`); len(diags) != 0 {
		t.Errorf("well-known unqualified ref flagged: %v", diags)
	}
}

// TestUnknownAttrSuggestion covers CAD102 on other-scoped and
// unqualified references outside the vocabulary.
func TestUnknownAttrSuggestion(t *testing.T) {
	diags := lint(t, `[ Constraint = other.Memroy >= 32 ]`)
	if !hasCode(diags, CodeUnknownAttr) {
		t.Fatalf("other.Memroy not flagged: %v", codes(diags))
	}
	if d := diags[0]; !strings.Contains(d.Message, `"Memory"`) {
		t.Errorf("no suggestion: %s", d.Message)
	}
	// The ad's own attributes extend the candidate set.
	diags = lint(t, `[ HasGPU = true; Constraint = other.HasGPUs ]`)
	if len(diags) == 0 || !strings.Contains(diags[0].Message, `"HasGPU"`) {
		t.Errorf("ad-local suggestion missing: %v", diags)
	}
}

// TestProbedRefsNotFlagged: references guarded by isUndefined/isError
// are deliberate probes, not typos.
func TestProbedRefsNotFlagged(t *testing.T) {
	src := `[ Constraint = isUndefined(other.CkptServer) || other.CkptServer == "c2" ]`
	diags := lint(t, src)
	// Only the unguarded use may warn.
	for _, d := range diags {
		if d.Code == CodeUnknownAttr {
			return
		}
	}
	t.Logf("diagnostics: %v", diags) // zero or one warning both acceptable
}

// TestVocabularyOption extends the well-known set.
func TestVocabularyOption(t *testing.T) {
	ad := classad.MustParse(`[ Constraint = other.SiteLocal > 1 ]`)
	if diags := AnalyzeAd(ad, nil); !hasCode(diags, CodeUnknownAttr) {
		t.Fatalf("SiteLocal not flagged without vocabulary: %v", diags)
	}
	opts := &Options{Vocabulary: []string{"SiteLocal"}}
	if diags := AnalyzeAd(ad, opts); len(diags) != 0 {
		t.Errorf("SiteLocal flagged despite vocabulary: %v", diags)
	}
}

// TestIntervalConflict is the canonical unsatisfiable pair, plus the
// boundary case where the interval collapses to a point.
func TestIntervalConflict(t *testing.T) {
	diags := lint(t, `[ Constraint = other.Memory > 64 && other.Memory < 32 ]`)
	if !hasCode(diags, CodeUnsatisfiable) {
		t.Fatalf("no CAD201: %v", codes(diags))
	}
	d := Unsatisfiable(diags)[0]
	if !strings.Contains(d.Message, "other.Memory > 64") || !strings.Contains(d.Message, "other.Memory < 32") {
		t.Errorf("conjuncts not named: %s", d.Message)
	}
	// x >= 64 && x <= 64 is satisfiable (exactly 64); strict on one
	// side is not.
	if diags := lint(t, `[ Constraint = other.Memory >= 64 && other.Memory <= 64 ]`); hasCode(diags, CodeUnsatisfiable) {
		t.Errorf("point interval flagged: %v", diags)
	}
	if diags := lint(t, `[ Constraint = other.Memory > 64 && other.Memory <= 64 ]`); !hasCode(diags, CodeUnsatisfiable) {
		t.Errorf("empty half-open interval not flagged: %v", diags)
	}
	// Mixed spellings of the same attribute share one interval; self
	// bindings fold before the bounds are read.
	diags = lint(t, `[ Memory = 31; Constraint = other.Memory >= Memory && Memory > other.Memory ]`)
	if !hasCode(diags, CodeUnsatisfiable) {
		t.Errorf("folded bound conflict not flagged: %v", codes(diags))
	}
}

// TestStringEqualityConflict: two equality demands on one attribute.
func TestStringEqualityConflict(t *testing.T) {
	diags := lint(t, `[ Constraint = Arch == "INTEL" && Arch == "SPARC" ]`)
	if !hasCode(diags, CodeUnsatisfiable) {
		t.Fatalf("no CAD201: %v", codes(diags))
	}
	// Same value twice (case-insensitive strings, §3.1) is fine.
	if diags := lint(t, `[ Constraint = Arch == "INTEL" && Arch == "intel" ]`); hasCode(diags, CodeUnsatisfiable) {
		t.Errorf("consistent equalities flagged: %v", diags)
	}
}

// TestConstantConjuncts: literal-folding verdicts — undefined and
// error conjuncts can never be true; self-satisfied conjuncts are
// tautologies.
func TestConstantConjuncts(t *testing.T) {
	for _, src := range []string{
		`[ Constraint = undefined && other.Memory > 1 ]`,
		`[ Constraint = error && other.Memory > 1 ]`,
		`[ Memory = 16; Constraint = Memory > 32 ]`,
	} {
		if diags := lint(t, src); !hasCode(diags, CodeUnsatisfiable) {
			t.Errorf("%s: no CAD201 in %v", src, codes(diags))
		}
	}
	diags := lint(t, `[ Memory = 64; Constraint = Memory > 32 && other.Type == "Job" ]`)
	if !hasCode(diags, CodeTautology) {
		t.Errorf("tautology not flagged: %v", codes(diags))
	}
	if HasErrors(diags) {
		t.Errorf("tautology should not be an error: %v", diags)
	}
}

// TestConstantRank covers CAD203, including constants hidden behind
// self-references.
func TestConstantRank(t *testing.T) {
	if diags := lint(t, `[ Rank = 0 ]`); !hasCode(diags, CodeConstantRank) {
		t.Errorf("Rank = 0 not flagged: %v", codes(diags))
	}
	if diags := lint(t, `[ Weight = 10; Rank = Weight * 2 ]`); !hasCode(diags, CodeConstantRank) {
		t.Errorf("folded constant Rank not flagged: %v", codes(diags))
	}
	if diags := lint(t, `[ Rank = other.Mips ]`); hasCode(diags, CodeConstantRank) {
		t.Errorf("other-dependent Rank flagged: %v", codes(diags))
	}
}

// TestDiagnosticPositions: findings carry the attribute's source
// position, and sort by it.
func TestDiagnosticPositions(t *testing.T) {
	diags := lint(t, "[\n  Rank = 1;\n  Constraint = other.Memory > 9 && other.Memory < 3\n]")
	if len(diags) < 2 {
		t.Fatalf("want 2 diagnostics, got %v", diags)
	}
	if diags[0].Code != CodeConstantRank || diags[0].Line != 2 || diags[0].Col != 3 {
		t.Errorf("first diagnostic = %+v, want CAD203 at 2:3", diags[0])
	}
	if diags[1].Code != CodeUnsatisfiable || diags[1].Line != 3 {
		t.Errorf("second diagnostic = %+v, want CAD201 at line 3", diags[1])
	}
	if s := diags[0].String(); !strings.HasPrefix(s, "2:3: CAD203 warning: ") {
		t.Errorf("String() = %q", s)
	}
}

// TestNestedAdScoping: attributes of a nested ad literal resolve in
// the nested scope first, then the enclosing ad.
func TestNestedAdScoping(t *testing.T) {
	src := `[ Memory = 64; Inner = [ Cpus = 4; Sum = Cpus + Memory ] ]`
	if diags := lint(t, src); hasCode(diags, CodeUnknownAttr) {
		t.Errorf("nested scope resolution flagged: %v", diags)
	}
}

// TestNilAndEmpty: degenerate inputs.
func TestNilAndEmpty(t *testing.T) {
	if diags := AnalyzeAd(nil, nil); diags != nil {
		t.Errorf("nil ad: %v", diags)
	}
	if diags := AnalyzeAd(classad.NewAd(), nil); len(diags) != 0 {
		t.Errorf("empty ad: %v", diags)
	}
}

// TestSeverityString pins the rendered severities.
func TestSeverityString(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Error.String() != "error" {
		t.Error("severity names changed")
	}
}
