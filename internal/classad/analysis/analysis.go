// Package analysis is a static analyzer for the ClassAd language — the
// checker behind cadlint, csubmit's lint-on-submit warnings and the
// collector's validation counters.
//
// The paper's §5 asks for tooling that can identify "constraints which
// can never be satisfied by the pool". canalyze answers that question
// dynamically, against the live ads of a collector; this package
// answers it statically, from the ad alone. Three passes run over a
// parsed ad:
//
//   - type inference through the classad three-valued logic (CAD001,
//     CAD002, CAD003): comparisons and arithmetic whose operand types
//     guarantee an undefined or error result, unknown builtins, and
//     wrong arity;
//   - reference resolution with full self/other scoping (CAD101,
//     CAD102): self-scoped references that can never bind, and
//     unqualified or other-scoped references outside the advertising
//     protocol's well-known attribute vocabulary, with did-you-mean
//     suggestions;
//   - interval analysis over the numeric conjuncts of the constraint
//     (CAD201, CAD202, CAD203): unsatisfiable and tautological
//     clauses, and constant Rank expressions that reduce matching to
//     arbitrary tie-breaks.
//
// Diagnostics carry the code, a severity, and the source position of
// the attribute they concern (when the ad came from the parser).
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/classad"
)

// Severity grades a diagnostic.
type Severity int

// The severities, in increasing order.
const (
	Info Severity = iota
	Warning
	// Error marks an ad that cannot behave as written: the flagged
	// expression can never contribute to a match.
	Error
)

// String returns the lowercase conventional name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Diagnostic codes. The CAD0xx range is type checking, CAD1xx is
// reference resolution, CAD2xx is constraint satisfiability.
const (
	CodeTypeConflict   = "CAD001" // comparison/arithmetic can only yield undefined/error
	CodeUnknownBuiltin = "CAD002" // call of a function that is not a builtin
	CodeBadArity       = "CAD003" // builtin called with an argument count outside its table row's range
	CodeSelfNeverBinds = "CAD101" // self.X where X is not defined in the ad
	CodeUnknownAttr    = "CAD102" // reference outside the ad and the well-known vocabulary
	CodeUnsatisfiable  = "CAD201" // conjunct (or conjunct pair) that can never be true
	CodeTautology      = "CAD202" // conjunct that is always true
	CodeConstantRank   = "CAD203" // Rank folds to a constant
)

// Diagnostic is one finding about an ad.
type Diagnostic struct {
	Code     string
	Severity Severity
	// Attr is the ad attribute the finding concerns ("" when the
	// finding is about the ad as a whole).
	Attr string
	// Line and Col locate the attribute's definition in the source the
	// ad was parsed from; zero when the ad was built programmatically.
	Line, Col int
	Message   string
	// Expr is the offending (sub)expression, unparsed.
	Expr string
}

// String renders the diagnostic as "line:col: CODE severity: message".
func (d Diagnostic) String() string {
	var pos string
	if d.Line > 0 {
		pos = fmt.Sprintf("%d:%d: ", d.Line, d.Col)
	}
	return fmt.Sprintf("%s%s %s: %s", pos, d.Code, d.Severity, d.Message)
}

// HasErrors reports whether any diagnostic has Error severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity >= Error {
			return true
		}
	}
	return false
}

// Unsatisfiable returns the CAD201 findings — the statically provable
// "can never match" verdicts. canalyze folds them into its report.
func Unsatisfiable(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Code == CodeUnsatisfiable {
			out = append(out, d)
		}
	}
	return out
}

// Options tunes an analysis run. The zero value is ready to use.
type Options struct {
	// Vocabulary adds attribute names to the well-known set consulted
	// by the reference pass (pool deployments with site-specific
	// attributes extend it here).
	Vocabulary []string
	// Env supplies the evaluation environment for constant folding;
	// nil selects classad.DefaultEnv.
	Env *classad.Env
}

// analyzer carries one run's state.
type analyzer struct {
	ad    *classad.Ad
	env   *classad.Env
	vocab map[string]bool // folded well-known names
	diags []Diagnostic
}

// AnalyzeAd runs every pass over ad and returns the findings sorted by
// source position. A nil ad has no findings.
func AnalyzeAd(ad *classad.Ad, opts *Options) []Diagnostic {
	if ad == nil {
		return nil
	}
	if opts == nil {
		opts = &Options{}
	}
	env := opts.Env
	if env == nil {
		env = classad.DefaultEnv()
	}
	a := &analyzer{ad: ad, env: env, vocab: buildVocab(opts.Vocabulary)}
	a.checkTypes()
	a.checkRefs()
	a.checkConstraint()
	sort.SliceStable(a.diags, func(i, j int) bool {
		di, dj := a.diags[i], a.diags[j]
		if di.Line != dj.Line {
			return di.Line < dj.Line
		}
		if di.Col != dj.Col {
			return di.Col < dj.Col
		}
		return di.Code < dj.Code
	})
	return a.diags
}

// report appends one finding, resolving the attribute's source
// position when the ad has one.
func (a *analyzer) report(code string, sev Severity, attr string, expr classad.Expr, format string, args ...any) {
	d := Diagnostic{
		Code:     code,
		Severity: sev,
		Attr:     attr,
		Message:  fmt.Sprintf(format, args...),
	}
	if expr != nil {
		d.Expr = expr.String()
	}
	if p, ok := a.ad.AttrPos(attr); ok {
		d.Line, d.Col = p.Line, p.Col
	}
	a.diags = append(a.diags, d)
}
