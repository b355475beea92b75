package matchmaker

// Negotiation forensics: the per-request "why did this not match?"
// ledger the paper's future-work §5b asks for, answered from the live
// cycle rather than static analysis (which canalyze/cadlint already
// provide). When the matchmaker is instrumented, every negotiation
// records a bounded Report per request — for an unmatched request, a
// per-offer verdict naming the failing constraint conjunct, the
// request that took the offer, or the posting-list test that pruned
// it; for a matched request, whether the chosen offer was already
// claimed (the ROADMAP item 1 livelock signature: the match succeeds
// every cycle, the claim is rejected every cycle). Reports are served
// at /why?request= on the debug endpoint and by `cstatus -why`.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/classad"
)

// Per-offer forensic outcomes. The first three mirror the scan's
// decision structure; matched-claimed flags a match the claim protocol
// is likely to reject (claimed resources revalidate rank at claim
// time).
const (
	VerdictConstraintFailed = "constraint-failed"
	VerdictOutranked        = "outranked"
	VerdictIndexPruned      = "index-pruned"
	VerdictMatchedClaimed   = "matched-claimed"
	VerdictUnpicked         = "unpicked"
)

// OfferVerdict is one offer's fate during one request's scan.
type OfferVerdict struct {
	// Offer names the offer ad.
	Offer string `json:"offer"`
	// Outcome is one of the Verdict* constants.
	Outcome string `json:"outcome"`
	// Detail localizes the outcome: the failing conjunct, the winning
	// request, or the pruning posting-list test.
	Detail string `json:"detail,omitempty"`
}

// Report is the forensic record of one request's most recent
// negotiation.
type Report struct {
	Request string `json:"request"`
	Owner   string `json:"owner,omitempty"`
	// Trace is the request's trace ID ("" for an untraced request),
	// the key of its story at /trace and in `cstatus -trace`.
	Trace string    `json:"trace,omitempty"`
	Time  time.Time `json:"time"`
	// Matched reports the cycle's outcome; Offer names the match.
	Matched bool   `json:"matched"`
	Offer   string `json:"offer,omitempty"`
	// Claimed is set on a matched report whose offer advertised
	// State == "Claimed" — the match may bounce off claim-time
	// revalidation (ROADMAP item 1).
	Claimed bool `json:"claimed,omitempty"`
	// Reason is the unmatched-summary category (Reason* constants).
	Reason string `json:"reason,omitempty"`
	// Ledger holds per-offer verdicts, capped at maxLedgerEntries;
	// Truncated reports that offers beyond the cap went unexamined.
	Ledger    []OfferVerdict `json:"ledger,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
}

const (
	// maxForensicsReports bounds the report store; the oldest
	// request's report is evicted past it.
	maxForensicsReports = 256
	// maxLedgerEntries bounds one report's per-offer ledger; building
	// a ledger stops (and marks Truncated) once it fills, so forensic
	// cost per unmatched request is O(cap) evaluations, not O(pool).
	maxLedgerEntries = 16
)

// Forensics retains the latest Report per request (keyed by folded
// request name), bounded by maxForensicsReports with FIFO eviction.
// All methods are safe for concurrent use; a nil *Forensics no-ops.
type Forensics struct {
	mu      sync.Mutex
	reports map[string]Report
	order   []string
}

// NewForensics returns an empty store.
func NewForensics() *Forensics {
	return &Forensics{reports: make(map[string]Report)}
}

// record stores r as the latest report for its request.
func (f *Forensics) record(r Report) {
	if f == nil {
		return
	}
	key := classad.Fold(r.Request)
	f.mu.Lock()
	if _, seen := f.reports[key]; !seen {
		f.order = append(f.order, key)
		if len(f.order) > maxForensicsReports {
			delete(f.reports, f.order[0])
			f.order = f.order[1:]
		}
	}
	f.reports[key] = r
	f.mu.Unlock()
}

// Lookup returns the latest report for the named request.
func (f *Forensics) Lookup(request string) (Report, bool) {
	if f == nil {
		return Report{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.reports[classad.Fold(request)]
	return r, ok
}

// Requests lists the request names with a retained report, sorted.
func (f *Forensics) Requests() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]string, 0, len(f.reports))
	for _, r := range f.reports {
		out = append(out, r.Request)
	}
	f.mu.Unlock()
	sort.Strings(out)
	return out
}

// offerClaimed reports whether an offer advertises itself as already
// claimed by a running job.
func offerClaimed(off *classad.Ad) bool {
	s, ok := off.Eval("State").StringVal()
	return ok && strings.EqualFold(s, "Claimed")
}

// buildLedger walks the offers an unmatched request was (or would have
// been) scanned against and explains each one's rejection, stopping at
// the ledger cap. cand/indexed carry the offer index's candidate set
// for the request (indexed=false means every offer was scanned);
// takenBy names the request that consumed each unavailable offer this
// cycle.
func (m *Matchmaker) buildLedger(req *classad.Ad, offers []*classad.Ad, available []bool, takenBy []string, cand []int, indexed bool) ([]OfferVerdict, bool) {
	inCand := map[int]bool{}
	var tests []reqTest
	if indexed {
		for _, oi := range cand {
			inCand[oi] = true
		}
		tests, _ = IndexableTests(req, m.cfg.Env)
	}
	var ledger []OfferVerdict
	for oi, off := range offers {
		if len(ledger) >= maxLedgerEntries {
			return ledger, true
		}
		v := OfferVerdict{Offer: adName(off)}
		switch {
		case indexed && !inCand[oi]:
			v.Outcome = VerdictIndexPruned
			v.Detail = pruneDetail(tests, off)
		default:
			res := classad.MatchEnv(req, off, m.cfg.Env)
			switch {
			case !res.Matched:
				v.Outcome = VerdictConstraintFailed
				v.Detail = failedConjunct(req, off, res, m.cfg.Env)
			case !available[oi]:
				v.Outcome = VerdictOutranked
				if takenBy != nil && takenBy[oi] != "" {
					v.Detail = "taken by " + takenBy[oi]
				} else {
					v.Detail = "claimed earlier this cycle"
				}
			default:
				// Compatible and available offers are always picked, so
				// this arm only fires on exotic rank values; keep the
				// ledger honest rather than silent.
				v.Outcome = VerdictUnpicked
				v.Detail = "compatible and available but not selected"
			}
		}
		ledger = append(ledger, v)
	}
	return ledger, false
}

// failedConjunct names the first constraint conjunct that rejects the
// pair, checking the request's side first (the side order MatchResult
// reports).
func failedConjunct(req, off *classad.Ad, res classad.MatchResult, env *classad.Env) string {
	side := func(label string, self, other *classad.Ad) string {
		e, ok := classad.ConstraintOf(self)
		if !ok {
			return label + " constraint not satisfied"
		}
		for _, c := range classad.SplitConjuncts(e) {
			if !classad.EvalExprAgainst(c, self, other, env).IsTrue() {
				return fmt.Sprintf("%s constraint conjunct `%s` not satisfied", label, c)
			}
		}
		return label + " constraint not satisfied"
	}
	if !res.LeftOK {
		return side("request", req, off)
	}
	return side("offer", off, req)
}

// pruneDetail names the posting-list test that excluded the offer from
// the candidate set, with the offer's actual value.
func pruneDetail(tests []reqTest, off *classad.Ad) string {
	for _, t := range tests {
		if excluded, why := testExcludes(t, off); excluded {
			return fmt.Sprintf("posting list %s: %s", t.attr, why)
		}
	}
	return "excluded by the candidate intersection"
}

// testExcludes mirrors the index's fill semantics for one offer:
// expression-valued attributes are never excluded, missing attributes
// always are (strict comparison with undefined is never true), and
// literal values are tested directly.
func testExcludes(t reqTest, off *classad.Ad) (bool, string) {
	e, ok := off.LookupKey(t.attr)
	if !ok {
		return true, "attribute undefined"
	}
	info := classad.Inspect(e)
	if info.Kind != classad.KindLiteral {
		return false, ""
	}
	v := info.Value
	switch t.kind {
	case testStrEq:
		s, isStr := v.StringVal()
		if !isStr {
			return true, fmt.Sprintf("value %s is not a string (test == %q)", v, t.str)
		}
		if classad.Fold(s) != t.str {
			return true, fmt.Sprintf("%q fails == %q", s, t.str)
		}
	case testNum:
		n, isNum := numericBound(v)
		if !isNum {
			return true, fmt.Sprintf("value %s is not numeric (test %s %g)", v, t.op, t.num)
		}
		if !opHolds(n, t.op, t.num) {
			return true, fmt.Sprintf("%g fails %s %g", n, t.op, t.num)
		}
	}
	return false, ""
}

// opHolds evaluates `a OP b` for the comparison operators the index
// prunes on.
func opHolds(a float64, op classad.Op, b float64) bool {
	switch op {
	case classad.OpLt:
		return a < b
	case classad.OpLe:
		return a <= b
	case classad.OpGt:
		return a > b
	case classad.OpGe:
		return a >= b
	case classad.OpEq:
		return a == b
	}
	return true
}
