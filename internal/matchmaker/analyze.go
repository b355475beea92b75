package matchmaker

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/classad"
	"repro/internal/classad/analysis"
)

// Constraint diagnostics (paper §5, future work): "The complexity of
// constraints imposed by resources and customers may hinder the
// diagnostic capability of administrators and customers who may wonder
// why certain requests are unable to find resources with particular
// characteristics. To alleviate this problem, we are researching
// methods for identifying constraints which can never be satisfied by
// the pool."
//
// Analyze tests each top-level conjunct of a request's constraint
// against every offer in the pool and reports, per clause, how many
// offers satisfy it — so a clause satisfied by zero offers is
// immediately visible as the culprit. It also reports the offers that
// the request would accept but that reject the request, separating
// "the pool can't serve you" from "the pool won't serve you".

// ClauseReport describes one conjunct of the request's constraint.
type ClauseReport struct {
	// Expr is the conjunct in source form.
	Expr string
	// Residual is the conjunct after partial evaluation against the
	// request's own attributes — the requirement as a provider
	// actually experiences it (e.g. "other.Memory >= self.Memory"
	// becomes "other.Memory >= 31"). Empty when identical to Expr.
	Residual string
	// Satisfied counts offers for which the conjunct is true.
	Satisfied int
	// Undefined counts offers for which it is undefined (usually a
	// missing attribute — a schema mismatch worth flagging).
	Undefined int
	// Errored counts offers for which evaluation was an error.
	Errored int
	// Suggestion, when non-empty, tells the user what the pool
	// actually offers for an unsatisfied numeric bound — e.g.
	// "pool's Memory ranges 32..256" against a clause demanding
	// other.Memory >= 512. The paper's §5 diagnostics goal is not
	// just flagging the impossible clause but "discovering hidden
	// characteristics of a pool".
	Suggestion string
	// StaticVerdict is the static analyzer's proof that this clause
	// can never be true — independent of the pool's current contents
	// (e.g. an interval conflict like other.Memory > 64 &&
	// other.Memory < 32). Empty when the clause is only dynamically
	// unsatisfied.
	StaticVerdict string
	// StaticNever counts offers against which the bilateral analyzer
	// PROVES the clause can never be true — not merely false this
	// cycle, but false under every clock and random seed (package
	// analysis, ProvablyNeverTrue). When StaticNever equals the pool
	// size, no re-advertisement of current members can ever satisfy
	// the clause; the pool's population itself must change.
	StaticNever int
}

// Analysis is the report produced by Analyze.
type Analysis struct {
	// Owner and Name identify the analyzed request.
	Owner, Name string
	// TotalOffers is the pool size examined.
	TotalOffers int
	// Clauses reports each top-level conjunct separately, in source
	// order.
	Clauses []ClauseReport
	// RequestOK counts offers satisfying the request's whole
	// constraint.
	RequestOK int
	// OfferOK counts offers whose own constraint accepts the
	// request.
	OfferOK int
	// Compatible counts offers passing both directions — the number
	// of genuine candidates.
	Compatible int
	// Unsatisfiable is true when some single clause is satisfied by
	// no offer — or when the static analyzer proves a clause can
	// never be true regardless of the pool: no state change elsewhere
	// in the pool can produce a match until the request changes.
	Unsatisfiable bool
	// Static holds the static analyzer's findings for the request ad
	// itself (package classad/analysis): the "can never match"
	// verdicts reused here instead of being recomputed ad hoc, plus
	// any type or reference problems worth surfacing alongside the
	// dynamic report.
	Static []analysis.Diagnostic
	// Index holds the index-friendliness findings (CAD401/CAD402):
	// whether the two-stage engine can prune for this request or must
	// scan the full offer set every cycle.
	Index []analysis.Diagnostic
}

// Analyze explains the match prospects of a request against a pool of
// offers.
func Analyze(req *classad.Ad, offers []*classad.Ad, env *classad.Env) *Analysis {
	a := &Analysis{TotalOffers: len(offers)}
	if s, ok := req.Eval(classad.AttrOwner).StringVal(); ok {
		a.Owner = s
	}
	if s, ok := req.Eval(classad.AttrName).StringVal(); ok {
		a.Name = s
	}

	conjuncts := classad.Conjuncts(req, env)
	a.Clauses = make([]ClauseReport, len(conjuncts))
	for i, c := range conjuncts {
		a.Clauses[i].Expr = c.Expr.String()
		if res := c.Residual.String(); res != a.Clauses[i].Expr {
			a.Clauses[i].Residual = res
		}
	}

	for _, off := range offers {
		reqOK := classad.EvalConstraint(req, off, env)
		offOK := classad.EvalConstraint(off, req, env)
		if reqOK {
			a.RequestOK++
		}
		if offOK {
			a.OfferOK++
		}
		if reqOK && offOK {
			a.Compatible++
		}
		for i, c := range conjuncts {
			v := classad.EvalExprAgainst(c.Expr, req, off, env)
			switch {
			case v.IsTrue():
				a.Clauses[i].Satisfied++
			case v.IsUndefined():
				a.Clauses[i].Undefined++
			case v.IsError():
				a.Clauses[i].Errored++
			}
			if !v.IsTrue() && analysis.ProvablyNeverTrue(c.Expr, req, off, env) {
				a.Clauses[i].StaticNever++
			}
		}
	}
	for i, c := range a.Clauses {
		if c.Satisfied == 0 && a.TotalOffers > 0 {
			a.Unsatisfiable = true
			a.Clauses[i].Suggestion = suggestBound(conjuncts[i].Bound, offers, env)
		}
	}

	// Static pass: the analyzer's CAD201 verdicts prove a clause can
	// never be true no matter what the pool advertises; attach each to
	// the clause it names and mark the request unsatisfiable.
	a.Static = analysis.AnalyzeAd(req, &analysis.Options{Env: env})
	a.Index = LintIndex(req, env)
	for _, d := range a.Index {
		if d.Severity >= analysis.Error {
			a.Unsatisfiable = true
		}
	}
	for _, d := range analysis.Unsatisfiable(a.Static) {
		a.Unsatisfiable = true
		for i := range a.Clauses {
			shown := a.Clauses[i].Residual
			if shown == "" {
				shown = a.Clauses[i].Expr
			}
			if strings.Contains(d.Message, fmt.Sprintf("%q", shown)) ||
				strings.Contains(d.Message, fmt.Sprintf("%q", a.Clauses[i].Expr)) {
				a.Clauses[i].StaticVerdict = d.Message
			}
		}
	}
	return a
}

// suggestBound inspects an unsatisfied clause: if it compares an
// attribute X of the offer with a literal (its classad.Bound), it
// reports the actual range of X across the pool, and the set of
// values when X is a string attribute with few distinct values.
func suggestBound(b *classad.Bound, offers []*classad.Ad, env *classad.Env) string {
	if b == nil {
		return ""
	}
	attr := b.Name
	var lo, hi float64
	var haveNum bool
	strValues := map[string]bool{}
	defined := 0
	for _, off := range offers {
		v := off.EvalEnv(attr, env)
		if n, isNum := v.NumberVal(); isNum {
			if !haveNum || n < lo {
				lo = n
			}
			if !haveNum || n > hi {
				hi = n
			}
			haveNum = true
			defined++
		} else if s, isStr := v.StringVal(); isStr {
			strValues[s] = true
			defined++
		}
	}
	switch {
	case defined == 0:
		return fmt.Sprintf("no offer defines %s at all", attr)
	case haveNum:
		return fmt.Sprintf("pool's %s ranges %g..%g", attr, lo, hi)
	case len(strValues) > 0 && len(strValues) <= 8:
		vals := make([]string, 0, len(strValues))
		for s := range strValues {
			vals = append(vals, fmt.Sprintf("%q", s))
		}
		sort.Strings(vals)
		return fmt.Sprintf("pool offers %s in {%s}", attr, strings.Join(vals, ", "))
	default:
		return ""
	}
}

// String renders the analysis in the style of a queue-analysis tool:
// one line per clause with its pool coverage, then the bilateral
// summary.
func (a *Analysis) String() string {
	var b strings.Builder
	who := a.Owner
	if who == "" {
		who = "(anonymous)"
	}
	fmt.Fprintf(&b, "Analysis for request of %s against %d offer(s):\n", who, a.TotalOffers)
	if len(a.Clauses) == 0 {
		b.WriteString("  request has no constraint: every offer is acceptable to it\n")
	}
	for i, c := range a.Clauses {
		marker := " "
		if c.Satisfied == 0 || c.StaticVerdict != "" {
			marker = "!"
		}
		shown := c.Expr
		if c.Residual != "" {
			shown = c.Residual
		}
		fmt.Fprintf(&b, " %s clause %d: %-50s matched %d/%d", marker, i+1,
			truncate(shown, 50), c.Satisfied, a.TotalOffers)
		if c.Undefined > 0 {
			fmt.Fprintf(&b, " (undefined on %d)", c.Undefined)
		}
		if c.Errored > 0 {
			fmt.Fprintf(&b, " (error on %d)", c.Errored)
		}
		b.WriteByte('\n')
		if c.StaticVerdict != "" {
			fmt.Fprintf(&b, "             static: %s\n", c.StaticVerdict)
		}
		if c.StaticNever > 0 {
			fmt.Fprintf(&b, "             static: provably never true against %d/%d offer(s) — those failures hold under every clock and random seed\n",
				c.StaticNever, a.TotalOffers)
		}
		if c.Suggestion != "" {
			fmt.Fprintf(&b, "             hint: %s\n", c.Suggestion)
		}
	}
	if extra := a.staticExtras(); len(extra) > 0 {
		b.WriteString("  static analysis of the request ad:\n")
		for _, d := range extra {
			fmt.Fprintf(&b, "    %s\n", d)
		}
	}
	for _, d := range a.Index {
		fmt.Fprintf(&b, "  index: %s\n", d)
	}
	fmt.Fprintf(&b, "  request accepts %d offer(s); %d offer(s) accept the request; %d compatible\n",
		a.RequestOK, a.OfferOK, a.Compatible)
	switch {
	case a.Unsatisfiable:
		b.WriteString("  VERDICT: unsatisfiable — the flagged clause(s) match nothing in this pool\n")
	case a.Compatible == 0 && a.RequestOK > 0:
		b.WriteString("  VERDICT: rejected — offers exist that suit the request, but their owner policies refuse it\n")
	case a.Compatible == 0:
		b.WriteString("  VERDICT: no match in the current pool state\n")
	default:
		fmt.Fprintf(&b, "  VERDICT: matchable (%d candidate(s))\n", a.Compatible)
	}
	return b.String()
}

// staticExtras returns the static findings not already attached to a
// clause line above.
func (a *Analysis) staticExtras() []analysis.Diagnostic {
	attached := map[string]bool{}
	for _, c := range a.Clauses {
		if c.StaticVerdict != "" {
			attached[c.StaticVerdict] = true
		}
	}
	var out []analysis.Diagnostic
	for _, d := range a.Static {
		if !attached[d.Message] {
			out = append(out, d)
		}
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
