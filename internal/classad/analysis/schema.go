package analysis

// Pool-schema inference: treat a corpus of ads (files, or a live
// collector's contents) as one schema'd dataset in the spirit of
// Robinson & DeWitt's "Turning Cluster Management into Data
// Management". No declaration exists — ClassAds are schema-free by
// design — so the schema is INFERRED: walk every ad, record each
// attribute's observed value types and numeric/string ranges, and use
// the result two ways: CAD304 flags attributes advertised with
// conflicting types across the corpus (the `Memory = "64"` string in
// a pool of integer Memorys that SAMGrid's operators kept tripping
// over), and dead-ad findings (CAD305, emitted by AuditCorpus) are
// annotated with range hints showing WHY a constraint bound can never
// be met by what the pool advertises.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/classad"
)

// attrSite records one ad that defines an attribute, with the types
// its definition can produce there.
type attrSite struct {
	origin string
	pos    classad.Pos
	hasPos bool
	types  typeSet
}

// AttrInfo aggregates everything the corpus says about one attribute.
type AttrInfo struct {
	// Name is the attribute's display spelling (first seen).
	Name string
	// Ads is how many corpus ads define the attribute.
	Ads int
	// Types is the union of inferred result types across definitions.
	Types typeSet
	// Lo/Hi bound the numeric literal values observed (valid when
	// HasNum); Strings holds distinct string literal values observed,
	// folded, capped at schemaMaxStrings.
	Lo, Hi  float64
	HasNum  bool
	Strings []string

	sites []attrSite
}

// schemaMaxStrings caps the distinct string values remembered per
// attribute; past it the set is only counted, not enumerated.
const schemaMaxStrings = 16

// Schema is an inferred attribute vocabulary for a corpus of ads.
type Schema struct {
	attrs map[string]*AttrInfo // folded name -> info
}

// InferSchema walks the corpus and builds the pool's attribute schema.
func InferSchema(corpus []CorpusAd) *Schema {
	s := &Schema{attrs: make(map[string]*AttrInfo)}
	for _, ca := range corpus {
		if ca.Ad == nil {
			continue
		}
		a := &analyzer{ad: ca.Ad, env: classad.DefaultEnv(), vocab: buildVocab(nil)}
		for _, name := range ca.Ad.Names() {
			def, _ := ca.Ad.Lookup(name)
			key := classad.Fold(name)
			info := s.attrs[key]
			if info == nil {
				info = &AttrInfo{Name: name, Lo: math.Inf(1), Hi: math.Inf(-1)}
				s.attrs[key] = info
			}
			info.Ads++
			ts := a.inferAttr(name, def, map[string]bool{})
			info.Types |= ts
			site := attrSite{origin: ca.Origin, types: ts}
			site.pos, site.hasPos = ca.Ad.AttrPos(name)
			info.sites = append(info.sites, site)
			v := ca.Ad.Eval(name)
			if n, ok := v.NumberVal(); ok {
				info.HasNum = true
				info.Lo = math.Min(info.Lo, n)
				info.Hi = math.Max(info.Hi, n)
			} else if str, ok := v.StringVal(); ok {
				folded := classad.Fold(str)
				if !containsStr(info.Strings, folded) && len(info.Strings) < schemaMaxStrings {
					info.Strings = append(info.Strings, folded)
				}
			}
		}
	}
	return s
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Lookup returns the schema entry for an attribute name, if any ad in
// the corpus defines it.
func (s *Schema) Lookup(name string) (*AttrInfo, bool) {
	info, ok := s.attrs[classad.Fold(name)]
	return info, ok
}

// Vocabulary returns the corpus's attribute names (display spellings,
// sorted), suitable as extra vocabulary for the single-ad reference
// pass so pool-specific attributes don't read as typos.
func (s *Schema) Vocabulary() []string {
	out := make([]string, 0, len(s.attrs))
	for _, info := range s.attrs {
		out = append(out, info.Name)
	}
	sort.Strings(out)
	return out
}

// RangeHint renders what the corpus advertises for an attribute —
// "pool's Memory ranges 32..256 over 4 ad(s)" — or "" when the
// attribute is unknown or carries no literal values.
func (s *Schema) RangeHint(name string) string {
	info, ok := s.Lookup(name)
	if !ok {
		return ""
	}
	switch {
	case info.HasNum && info.Lo == info.Hi:
		return fmt.Sprintf("pool's %s is always %s over %d ad(s)",
			info.Name, fmtNum(info.Lo), info.Ads)
	case info.HasNum:
		return fmt.Sprintf("pool's %s ranges %s..%s over %d ad(s)",
			info.Name, fmtNum(info.Lo), fmtNum(info.Hi), info.Ads)
	case len(info.Strings) > 0:
		vals := append([]string(nil), info.Strings...)
		sort.Strings(vals)
		return fmt.Sprintf("pool's %s is one of %s over %d ad(s)",
			info.Name, quotedList(vals), info.Ads)
	}
	return ""
}

func fmtNum(n float64) string {
	if n == math.Trunc(n) && math.Abs(n) < 1e15 {
		return fmt.Sprintf("%d", int64(n))
	}
	return fmt.Sprintf("%g", n)
}

func quotedList(vals []string) string {
	qs := make([]string, len(vals))
	for i, v := range vals {
		qs[i] = quoted(v)
	}
	return strings.Join(qs, ", ")
}

// TypeConflicts reports every attribute whose definitions across the
// corpus cannot agree on a proper type (CAD304): e.g. Memory = "64"
// in one ad and Memory = 64 everywhere else. Numeric widths (int vs
// real) are not a conflict — the evaluator promotes them — and
// undefined/error components are ignored: only the proper values an
// attribute actually takes are compared. One finding is emitted per
// conflicting site, attributed to the minority type(s) so the fix
// points at the odd ad out.
func (s *Schema) TypeConflicts() []AuditFinding {
	var keys []string
	for k := range s.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []AuditFinding
	for _, k := range keys {
		info := s.attrs[k]
		if info.Ads < 2 || !conflicting(info.Types) {
			continue
		}
		// Count sites per type family to name the majority.
		counts := make(map[typeSet]int)
		for _, site := range info.sites {
			counts[family(site.types)]++
		}
		majority, best := typeSet(0), -1
		for fam, n := range counts {
			if fam != 0 && (n > best || (n == best && fam < majority)) {
				majority, best = fam, n
			}
		}
		for _, site := range info.sites {
			fam := family(site.types)
			if fam == 0 || fam == majority {
				continue
			}
			d := Diagnostic{
				Code:     CodeSchemaTypeConflict,
				Severity: Warning,
				Attr:     info.Name,
				Message: fmt.Sprintf(
					"attribute %s is %s here but %s in %d other ad(s): cross-ad comparisons against it will yield error, not a match",
					info.Name, fam.describe(), majority.describe(), counts[majority]),
			}
			if site.hasPos {
				d.Line, d.Col = site.pos.Line, site.pos.Col
			}
			out = append(out, AuditFinding{Origin: site.origin, Diag: d})
		}
	}
	return out
}

// family buckets a type set for conflict detection: numbers (with the
// booleans that coerce to them) form one family, strings another,
// lists and ads their own; undefined/error components are dropped.
func family(ts typeSet) typeSet {
	proper := ts.proper()
	if proper&(tNumish) != 0 && proper&^(tNumish) == 0 {
		return tInt | tReal
	}
	return proper
}

// conflicting reports whether a type union spans more than one family
// of proper types.
func conflicting(ts typeSet) bool {
	proper := ts.proper()
	fams := 0
	for _, fam := range []typeSet{tNumish, tStr, tList, tAd} {
		if proper&fam != 0 {
			fams++
		}
	}
	return fams > 1
}

// boundHints explains a dead ad via the schema: for every conjunct the
// interval pass reads as a range bound (other.Memory >= 512 after
// partial evaluation), compare the bound against what the corpus
// advertises for that attribute and describe the gap. Empty when no
// bound is explained by the schema.
func (s *Schema) boundHints(ad *classad.Ad, env *classad.Env) string {
	var hints []string
	for _, c := range classad.Conjuncts(ad, env) {
		num, str, ok := rangeBound(c.Bound)
		if !ok {
			continue
		}
		disp, op := c.Bound.Name, c.Bound.Op
		info, known := s.attrs[c.Bound.Key]
		if !known {
			hints = append(hints, fmt.Sprintf("no ad in the corpus defines %s", disp))
			continue
		}
		if str != "" {
			if len(info.Strings) > 0 && !containsStr(info.Strings, classad.Fold(str)) {
				if h := s.RangeHint(disp); h != "" {
					hints = append(hints, h)
				}
			}
			continue
		}
		if !info.HasNum {
			continue
		}
		violated := false
		switch op {
		case classad.OpGt:
			violated = info.Hi <= num
		case classad.OpGe:
			violated = info.Hi < num
		case classad.OpLt:
			violated = info.Lo >= num
		case classad.OpLe:
			violated = info.Lo > num
		case classad.OpEq:
			violated = num < info.Lo || num > info.Hi
		}
		if violated {
			if h := s.RangeHint(disp); h != "" {
				hints = append(hints, h)
			}
		}
	}
	return strings.Join(dedupStrings(hints), "; ")
}

func dedupStrings(xs []string) []string {
	seen := make(map[string]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
