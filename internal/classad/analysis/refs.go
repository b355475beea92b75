package analysis

import (
	"sort"
	"strings"

	"repro/internal/classad"
)

// The reference pass resolves every attribute reference with the same
// scoping rules the evaluator uses: self.X looks only in the ad itself
// (never falling back to the matched ad), while an unqualified X tries
// the ad first and then the other party's ad at match time. A
// self-scoped reference to a missing attribute is therefore provably
// undefined (CAD101); an unqualified or other-scoped reference that is
// neither local nor part of the advertising protocol's well-known
// vocabulary is probably a typo (CAD102) — the dominant operational
// failure mode of hand-written ads, which silently never match.

// wellKnown is the advertising protocol's attribute vocabulary: the
// names given meaning by the protocol itself plus the machine and job
// attributes of the paper's figures as advertised by this repo's
// daemons.
var wellKnown = []string{
	// Protocol attributes (classad.Attr*).
	classad.AttrConstraint, classad.AttrRequirements, classad.AttrRank,
	classad.AttrType, classad.AttrName, classad.AttrOwner,
	classad.AttrContact, classad.AttrTicket,
	// Machine ads (paper Figure 1).
	"Activity", "Arch", "CurrentRank", "DayTime", "Disk", "Friends",
	"KFlops", "KeyboardIdle", "LoadAvg", "Memory", "Mips", "OpSys",
	"RemoteHost", "RemoteOwner", "ResearchGroup", "StartdIpAddr",
	"State", "Untrusted",
	// Job ads (paper Figure 2).
	"Args", "Cluster", "Cmd", "CompletionDate", "Iwd", "JobId",
	"JobStatus", "Process", "QDate", "ShadowContact", "WantCheckpoint",
	"WantRemoteSyscalls", "Work",
}

// buildVocab folds the well-known vocabulary plus any extras.
func buildVocab(extra []string) map[string]bool {
	v := make(map[string]bool, len(wellKnown)+len(extra))
	for _, n := range wellKnown {
		v[classad.Fold(n)] = true
	}
	for _, n := range extra {
		v[classad.Fold(n)] = true
	}
	return v
}

// checkRefs runs the reference pass over every attribute.
func (a *analyzer) checkRefs() {
	chain := []*classad.Ad{a.ad}
	for _, name := range a.ad.Names() {
		e, _ := a.ad.Lookup(name)
		a.refWalk(name, e, chain, false)
	}
}

// refWalk descends an expression. chain holds the enclosing ads,
// innermost first (nested ad literals push). probed marks descent
// through a builtin whose row sets Probes (isUndefined, isError,
// unparse): its arguments legitimately name attributes that may not
// exist.
func (a *analyzer) refWalk(attr string, e classad.Expr, chain []*classad.Ad, probed bool) {
	info := classad.Inspect(e)
	switch info.Kind {
	case classad.KindAttrRef:
		if !probed {
			a.checkRef(attr, e, info, chain)
		}
		return
	case classad.KindCall:
		if b, ok := classad.LookupBuiltin(info.Name); ok && b.Probes {
			probed = true
		}
	case classad.KindAd:
		inner := append([]*classad.Ad{info.Ad}, chain...)
		for _, n := range info.Ad.Names() {
			ie, _ := info.Ad.Lookup(n)
			a.refWalk(attr, ie, inner, probed)
		}
		return
	case classad.KindSelect:
		// base.Field selects from a runtime record; only the base can
		// be resolved statically.
	}
	for _, c := range info.Args {
		a.refWalk(attr, c, chain, probed)
	}
}

// checkRef resolves one attribute reference against the scope chain.
func (a *analyzer) checkRef(attr string, e classad.Expr, info classad.ExprInfo, chain []*classad.Ad) {
	switch info.Scope {
	case classad.ScopeSelf:
		if _, ok := chain[0].Lookup(info.Name); ok {
			return
		}
		msg := "self." + info.Name + " is not defined in this ad; self never falls back to the matched ad, so the reference always evaluates to undefined"
		if sug := suggest(info.Name, adNames(chain[0])); sug != "" {
			msg += " (did you mean " + quoted(sug) + "?)"
		}
		a.report(CodeSelfNeverBinds, Warning, attr, e, "%s", msg)
	case classad.ScopeOther:
		if a.vocab[classad.Fold(info.Name)] {
			return
		}
		msg := "other." + info.Name + " is not a well-known advertised attribute; it binds only if the matched ad happens to define it"
		if sug := suggest(info.Name, a.candidates(chain)); sug != "" {
			msg += " (did you mean " + quoted(sug) + "?)"
		}
		a.report(CodeUnknownAttr, Warning, attr, e, "%s", msg)
	default:
		for _, ad := range chain {
			if _, ok := ad.Lookup(info.Name); ok {
				return
			}
		}
		if a.vocab[classad.Fold(info.Name)] {
			return
		}
		msg := quoted(info.Name) + " is not defined in this ad and is not a well-known advertised attribute; it binds only if the matched ad happens to define it"
		if sug := suggest(info.Name, a.candidates(chain)); sug != "" {
			msg += " (did you mean " + quoted(sug) + "?)"
		}
		a.report(CodeUnknownAttr, Warning, attr, e, "%s", msg)
	}
}

// candidates collects did-you-mean targets: the vocabulary plus every
// attribute defined in the enclosing ads.
func (a *analyzer) candidates(chain []*classad.Ad) []string {
	seen := make(map[string]bool, len(a.vocab))
	var out []string
	add := func(n string) {
		if f := classad.Fold(n); !seen[f] {
			seen[f] = true
			out = append(out, n)
		}
	}
	for _, n := range wellKnown {
		add(n)
	}
	for _, ad := range chain {
		for _, n := range ad.Names() {
			add(n)
		}
	}
	sort.Strings(out)
	return out
}

func adNames(ad *classad.Ad) []string {
	out := append([]string(nil), ad.Names()...)
	sort.Strings(out)
	return out
}

// suggest returns the closest candidate within a small edit distance,
// or "" when nothing is plausibly a typo for name.
func suggest(name string, candidates []string) string {
	limit := 1
	if len(name) >= 5 {
		limit = 2
	}
	best, bestDist := "", limit+1
	ln := strings.ToLower(name)
	for _, c := range candidates {
		if strings.EqualFold(c, name) {
			continue
		}
		if d := editDistance(ln, strings.ToLower(c), limit); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b, capped at
// limit+1 to keep the scan cheap.
func editDistance(a, b string, limit int) int {
	if abs(len(a)-len(b)) > limit {
		return limit + 1
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > limit {
			return limit + 1
		}
		prev, cur = cur, prev
	}
	if prev[len(b)] > limit {
		return limit + 1
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
