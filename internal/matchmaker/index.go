package matchmaker

// The offer index: stage one of the two-stage negotiation engine.
//
// A negotiation cycle's cost is dominated by bilateral Constraint/Rank
// evaluation over the full request × offer cross product (paper §3.2
// runs the matchmaking algorithm against every ad in the pool). Most
// request constraints, however, open with conjuncts a matchmaker can
// decide *without* evaluating the offer's side at all: equality and
// interval bounds on literal attributes of the offer, such as
//
//	other.Arch == "INTEL" && other.Memory >= 32 && ...
//
// The index extracts those conjuncts from the request's constraint
// (after partially evaluating it against the request, so
// `other.Memory >= self.Memory` folds to `other.Memory >= 31`) and
// answers them from per-attribute posting lists built over the offer
// set, cutting the candidate list the scanner must evaluate from the
// whole pool to the offers that could possibly satisfy the request.
//
// Soundness, not completeness: an offer pruned by the index can never
// produce a match — three-valued conjunction is true only when every
// conjunct is true (§3.1: false, undefined and error are all
// non-matches), and comparison operators are strict — while an offer
// the index keeps may still fail the full bilateral evaluation the
// scanner performs. Attributes an offer defines as expressions rather
// than literals cannot be decided statically, so such offers are
// always candidates for tests on that attribute.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/classad"
)

// testKind classifies an indexable test.
type testKind int

const (
	testStrEq testKind = iota // attr == "literal" (case-folded)
	testNum                   // attr OP number, OP in < <= > >= ==
)

// reqTest is one indexable conjunct of a request constraint,
// normalized to attribute-on-the-left form. attr and str are
// case-folded, mirroring the evaluator's case-insensitive attribute
// names and string comparison.
type reqTest struct {
	attr string
	kind testKind
	str  string
	op   classad.Op
	num  float64
}

// IndexableTests extracts the conjuncts of req's constraint that the
// offer index can prune on. unsat reports that some conjunct compares
// against a literal undefined/error — comparisons are strict, so the
// constraint can never be true and the request matches nothing.
//
// What is indexable (see DESIGN.md §10): a conjunct with a
// classad.Bound — a residual comparing an attribute of the offer with
// a literal — whose operator is <, <=, >, >=, or ==, and whose literal
// is a string (equality only), a number, or a boolean (equality only).
func IndexableTests(req *classad.Ad, env *classad.Env) (tests []reqTest, unsat bool) {
	tests, bad := indexTests(classad.Conjuncts(req, env))
	return tests, bad != nil
}

// indexTests is the index's policy over a constraint's conjuncts. bad
// is the first conjunct that makes the constraint unsatisfiable (tests
// is nil then), nil when none does.
func indexTests(conjuncts []classad.Conjunct) (tests []reqTest, bad *classad.Conjunct) {
	for i, c := range conjuncts {
		b := c.Bound
		if b == nil || b.Op == classad.OpNe {
			continue
		}
		if b.Lit.IsUndefined() || b.Lit.IsError() {
			// Strict comparison against undefined/error is never true,
			// so the whole conjunction is unsatisfiable.
			return nil, &conjuncts[i]
		}
		if s, isStr := b.Lit.StringVal(); isStr {
			if b.Op != classad.OpEq {
				continue // relational order on strings is rare; not indexed
			}
			tests = append(tests, reqTest{attr: b.Key, kind: testStrEq, str: classad.Fold(s)})
			continue
		}
		n, isNum := numericBound(b.Lit)
		if !isNum || math.IsNaN(n) {
			// Lists, ads: comparing them is an error — never true —
			// but leave the conjunct to the full evaluation rather
			// than encode error semantics here. NaN: the evaluator's
			// three-way compare classifies NaN as equal to everything;
			// not worth reproducing in posting lists.
			continue
		}
		if b.Lit.Type() == classad.BooleanType && b.Op != classad.OpEq {
			continue // relational order on booleans is an error
		}
		tests = append(tests, reqTest{attr: b.Key, kind: testNum, op: b.Op, num: n})
	}
	return tests, nil
}

// numericBound extracts the numeric axis value of a literal: numbers
// as themselves, booleans coerced to 0/1 exactly as evalCompare does.
func numericBound(v classad.Value) (float64, bool) {
	switch v.Type() {
	case classad.IntegerType, classad.RealType:
		n, _ := v.NumberVal()
		return n, true
	case classad.BooleanType:
		if v.IsTrue() {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// numEntry is one (value, offer) pair on an attribute's numeric axis.
type numEntry struct {
	val float64
	idx int
}

// postings holds everything the index knows about one attribute across
// the offer set.
type postings struct {
	// strs maps a case-folded literal string value to the offers
	// advertising it, ascending by offer index.
	strs map[string][]int
	// nums lists offers with a literal numeric (or boolean, coerced)
	// value. Its first sorted entries are ordered by value then offer
	// index; entries added since are an unordered tail, which settle
	// merges in before the axis is read.
	nums   []numEntry
	sorted int
	// exprs lists offers whose definition is not a literal: their
	// value depends on the match, so every test on this attribute must
	// keep them. Ascending by offer index.
	exprs []int
}

// OfferIndex is a set of per-attribute posting lists over an offer
// set. The engine builds one over its whole pool in a batch and keeps
// it current (Add/Remove, under a lock) as ads change; BestOffer and
// MatchGang build a throwaway one. Either way it describes a possibly
// stale snapshot — the same weak-consistency stance as the rest of the
// system: decisions are validated by the claiming protocol.
type OfferIndex struct {
	mu     sync.RWMutex
	offers []*classad.Ad
	live   []bool
	// keys holds each slot's offer key (scan.go) in a keyed index, the
	// engine's persistent one, whose walks read them; it is fixed when
	// Add files the slot: a changed offer takes a new slot, so no key
	// goes stale.
	keyed bool
	keys  []offerKey
	nlive int
	attrs map[string]*postings
	// acc and tmp are candidateSet's bitsets (one bit per slot), kept
	// so a lookup allocates at most its listing; candidateSet holds mu
	// exclusively while it fills them. acc keeps the last lookup's live
	// candidates for the rank list walk (ranklist.go) or the listing
	// that follows it.
	acc, tmp []uint64
	// ranks are the rank lists, at most maxRankLists, most recently
	// used first; rankEvals counts the EvalRanks the lists spent since
	// takeRankEvals last read it.
	ranks     []*rankList
	rankEvals int
}

// NewOfferIndex builds posting lists over offers. Build cost is one
// pass over every attribute of every offer — no expression evaluation.
func NewOfferIndex(offers []*classad.Ad) *OfferIndex { return newOfferIndex(offers, false) }

// newOfferIndex is NewOfferIndex that, if keyed, also derives the
// offer key of every slot it files.
func newOfferIndex(offers []*classad.Ad, keyed bool) *OfferIndex {
	ix := &OfferIndex{attrs: make(map[string]*postings), keyed: keyed}
	for _, off := range offers {
		ix.addLocked(off)
	}
	for _, p := range ix.attrs {
		p.settle()
	}
	return ix
}

// Len reports how many live offers the index covers.
func (ix *OfferIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nlive
}

// Add indexes one more offer and returns its slot. It is an append
// per attribute: a freshly appended slot has the highest index, so
// string and expression lists stay sorted, and a numeric axis takes
// the entry on its unordered tail until a lookup next reads it.
func (ix *OfferIndex) Add(off *classad.Ad) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.addLocked(off)
}

// settle brings the axis into order. An ad that changes costs its
// numeric attributes one append each; the merge is paid once per
// lookup that tests the attribute, however many ads changed.
func (p *postings) settle() { p.sorted = settleTail(p.nums, p.sorted, cmpNumEntry) }

// settleTail orders s, whose first sorted elements are in order: it
// sorts the elements added since and merges them into the sorted
// prefix from the back, moving only what lies above the lowest
// newcomer. It returns the new sorted length, len(s).
func settleTail[T any](s []T, sorted int, cmp func(a, b T) int) int {
	if sorted == len(s) {
		return sorted
	}
	tail := slices.Clone(s[sorted:])
	slices.SortFunc(tail, cmp)
	i, w := sorted-1, len(s)-1
	for j := len(tail) - 1; j >= 0; w-- {
		if i >= 0 && cmp(s[i], tail[j]) > 0 {
			s[w] = s[i]
			i--
		} else {
			s[w] = tail[j]
			j--
		}
	}
	return len(s)
}

func cmpNumEntry(a, b numEntry) int {
	if c := cmp.Compare(a.val, b.val); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// Remove retires the offer in slot i: it stops appearing in candidate
// lists. Posting entries are dropped lazily on lookup.
func (ix *OfferIndex) Remove(i int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if i >= 0 && i < len(ix.live) && ix.live[i] {
		ix.live[i] = false
		ix.offers[i] = nil // a dead slot is never read; let the ad go
		ix.nlive--
	}
}

// addLocked appends the offer, files every literal attribute into its
// posting list, and ranks it into every rank list.
func (ix *OfferIndex) addLocked(off *classad.Ad) int {
	i := len(ix.offers)
	ix.offers = append(ix.offers, off)
	ix.live = append(ix.live, true)
	if ix.keyed {
		ix.keys = append(ix.keys, keyOf(off))
	}
	ix.nlive++
	for _, key := range off.Keys() {
		e, _ := off.LookupKey(key)
		p := ix.attrs[key]
		if p == nil {
			p = &postings{strs: make(map[string][]int)}
			ix.attrs[key] = p
		}
		info := classad.Inspect(e)
		if info.Kind != classad.KindLiteral {
			p.exprs = append(p.exprs, i)
			continue
		}
		v := info.Value
		if s, isStr := v.StringVal(); isStr {
			f := classad.Fold(s)
			p.strs[f] = append(p.strs[f], i)
			continue
		}
		if n, isNum := numericBound(v); isNum && !math.IsNaN(n) {
			p.nums = append(p.nums, numEntry{n, i})
			continue
		}
		// Literal undefined/error/list/ad: no test this index answers
		// can hold for it (strict comparison yields undefined or
		// error), so it is correctly absent from every posting list.
	}
	for _, l := range ix.ranks {
		if l.file(i, off) {
			ix.rankEvals++
		}
	}
	return i
}

// Candidates returns the offers that could possibly satisfy req's
// constraint, ascending by offer index.
//
// indexed=false means the constraint had no indexable conjunct and the
// caller must scan everything (cand is nil). indexed=true with an
// empty cand means the index proved no offer can match.
func (ix *OfferIndex) Candidates(req *classad.Ad, env *classad.Env) (cand []int, indexed bool) {
	return ix.candidatesFor(IndexableTests(req, env))
}

// candidatesFor is Candidates for a request's index tests.
func (ix *OfferIndex) candidatesFor(tests []reqTest, unsat bool) (cand []int, indexed bool) {
	if _, indexed = ix.candidateSet(tests, unsat); !indexed {
		return nil, false
	}
	return ix.appendSet(nil), true
}

// candidateSet leaves in acc the live slots a request's index tests
// admit and returns how many there are; indexed=false means the tests
// prune nothing and acc is left alone.
func (ix *OfferIndex) candidateSet(tests []reqTest, unsat bool) (n int, indexed bool) {
	if len(tests) == 0 && !unsat {
		return 0, false
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	words := (len(ix.offers) + 63) / 64
	acc, scratch := growTo(&ix.acc, words), growTo(&ix.tmp, words)
	clear(acc)
	if unsat {
		return 0, true
	}
	for ti, t := range tests {
		set := acc
		if ti > 0 {
			set = scratch
			clear(set)
		}
		ix.fill(set, t)
		if ti > 0 {
			for w := range acc {
				acc[w] &= set[w]
			}
		}
	}
	for w, word := range acc {
		for ; word != 0; word &= word - 1 {
			if i := w*64 + bits.TrailingZeros64(word); ix.live[i] {
				n++
			} else {
				acc[w] &^= 1 << (uint(i) % 64)
			}
		}
	}
	return n, true
}

// appendSet appends the slots of the last candidate set to cand, in
// ascending order; the result is never nil.
func (ix *OfferIndex) appendSet(cand []int) []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if cand == nil {
		cand = []int{}
	}
	for w, word := range ix.acc {
		for ; word != 0; word &= word - 1 {
			cand = append(cand, w*64+bits.TrailingZeros64(word))
		}
	}
	return cand
}

// fill sets the bit of every offer test t admits: literal values that
// satisfy it plus every expression-valued definition of the attribute.
// Offers without the attribute stay clear — a strict comparison with
// undefined is undefined, never true.
func (ix *OfferIndex) fill(set []uint64, t reqTest) {
	p := ix.attrs[t.attr]
	if p == nil {
		return
	}
	for _, i := range p.exprs {
		set[i/64] |= 1 << (uint(i) % 64)
	}
	switch t.kind {
	case testStrEq:
		for _, i := range p.strs[t.str] {
			set[i/64] |= 1 << (uint(i) % 64)
		}
	case testNum:
		p.settle() // Candidates holds the lock exclusively
		lo, hi := numRange(p.nums, t.op, t.num)
		for _, e := range p.nums[lo:hi] {
			set[e.idx/64] |= 1 << (uint(e.idx) % 64)
		}
	}
}

// numRange returns the half-open window of nums (sorted by value)
// satisfying `value OP bound`.
func numRange(nums []numEntry, op classad.Op, bound float64) (lo, hi int) {
	geq := func(b float64) int { // first index with val >= b
		return sort.Search(len(nums), func(i int) bool { return nums[i].val >= b })
	}
	gt := func(b float64) int { // first index with val > b
		return sort.Search(len(nums), func(i int) bool { return nums[i].val > b })
	}
	switch op {
	case classad.OpLt:
		return 0, geq(bound)
	case classad.OpLe:
		return 0, gt(bound)
	case classad.OpGt:
		return gt(bound), len(nums)
	case classad.OpGe:
		return geq(bound), len(nums)
	case classad.OpEq:
		return geq(bound), gt(bound)
	}
	return 0, 0
}
