package matchmaker

// Index-friendliness lint (the CAD400 series): static warnings about
// how a request's constraint will behave against the two-stage
// negotiation engine's OfferIndex. The index prunes candidates using
// conjuncts of the shape `other.Attr OP literal` (after partial
// evaluation against the request); a constraint that contributes none
// forces stage two to scan the entire offer set every cycle — correct,
// but the exact quadratic cost the index exists to avoid. The pass
// lives here rather than in classad/analysis because it is defined by
// this package's index policy over classad.Conjuncts: the lint warns
// about whatever the index actually fails to use, not an approximation.

import (
	"fmt"

	"repro/internal/classad"
	"repro/internal/classad/analysis"
)

// LintIndex reports index-friendliness findings for a request ad:
//
//   - CAD401 (warning): the ad has a constraint, but no conjunct is
//     indexable — every negotiation cycle will evaluate the full offer
//     set for this request.
//   - CAD402 (error): a conjunct compares against a literal undefined
//     or error after partial evaluation; comparisons are strict
//     (§3.1), so the constraint can never be true and the index
//     rejects the request outright.
//
// An ad without a constraint gets no findings: it accepts everything,
// which needs no index. Findings are positioned at the constraint
// attribute.
func LintIndex(req *classad.Ad, env *classad.Env) []analysis.Diagnostic {
	if req == nil {
		return nil
	}
	ce, ok := classad.ConstraintOf(req)
	if !ok {
		return nil
	}
	cattr := classad.AttrRequirements
	if _, ok := req.Lookup(classad.AttrConstraint); ok {
		cattr = classad.AttrConstraint
	}
	mkDiag := func(code string, sev analysis.Severity, msg string) analysis.Diagnostic {
		d := analysis.Diagnostic{Code: code, Severity: sev, Attr: cattr,
			Message: msg, Expr: ce.String()}
		if p, ok := req.AttrPos(cattr); ok {
			d.Line, d.Col = p.Line, p.Col
		}
		return d
	}

	tests, bad := indexTests(classad.Conjuncts(req, env))
	if bad != nil {
		return []analysis.Diagnostic{mkDiag(analysis.CodeIndexUnsat, analysis.Error, fmt.Sprintf(
			"conjunct %q compares against a literal undefined/error value; strict comparison is never true, so the constraint can never be satisfied",
			bad.Expr.String()))}
	}
	if len(tests) == 0 {
		return []analysis.Diagnostic{mkDiag(analysis.CodeUnindexable, analysis.Warning,
			"no conjunct of the constraint is indexable (shape `other.Attr OP literal` after partial evaluation): every negotiation cycle will scan the full offer set for this ad")}
	}
	return nil
}
