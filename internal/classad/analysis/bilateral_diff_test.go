package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/classad"
)

// TestBilateralDifferential is the soundness gate for the CAD300
// verdicts: over ≥1000 randomly generated ad pairs, every pair the
// bilateral analyzer declares NeverMatch must be rejected by the
// exhaustive evaluator — under two different environments (clocks and
// random seeds), since the verdict claims independence from both.
// The single-ad CAD201 verdict is held to the same standard: a left ad
// it calls unsatisfiable must not accept any right ad. Missed verdicts
// are fine (the analyzer is deliberately incomplete); a single
// contradicted verdict is a bug.
func TestBilateralDifferential(t *testing.T) {
	const pairs = 1200
	rng := rand.New(rand.NewSource(7))
	envA := classad.FixedEnv(1_000_000, 1)
	envB := classad.FixedEnv(2_000_000, 99)

	verdicts := 0
	var rights, unsatLefts []*classad.Ad
	for i := 0; i < pairs; i++ {
		left := genAd(rng, "job")
		right := genAd(rng, "machine")
		rights = append(rights, right)
		if len(Unsatisfiable(AnalyzeAd(left, &Options{Env: envA}))) > 0 {
			unsatLefts = append(unsatLefts, left)
		}
		rep := AnalyzeMatch(left, right, &Options{Env: envA})
		if !rep.NeverMatch {
			continue
		}
		verdicts++
		for _, env := range []*classad.Env{envA, envB} {
			if classad.MatchEnv(left, right, env).Matched {
				t.Fatalf("pair %d: analyzer says NeverMatch but evaluator matched\nleft:  %s\nright: %s\ndiags: %v",
					i, left, right, rep.Diags())
			}
		}
	}
	// CAD201 is a claim about one ad's constraint against every peer,
	// so any right ad of the run is a witness against it; a few hundred
	// keep the check quick.
	for _, left := range unsatLefts {
		for _, right := range rights[:300] {
			for _, env := range []*classad.Env{envA, envB} {
				if classad.EvalConstraint(left, right, env) {
					t.Fatalf("CAD201 says the constraint can never be true, but it accepts a generated peer\nad:   %s\npeer: %s\ndiags: %v",
						left, right, Unsatisfiable(AnalyzeAd(left, &Options{Env: envA})))
				}
			}
		}
	}
	// The generator is tuned so a healthy share of pairs earn a
	// verdict; if none do, the test is vacuous.
	if verdicts < pairs/20 || len(unsatLefts) < pairs/20 {
		t.Fatalf("only %d/%d pairs earned a NeverMatch verdict and %d a CAD201 one; generator or analyzer degenerated",
			verdicts, pairs, len(unsatLefts))
	}
	t.Logf("%d/%d pairs proven unmatchable and %d left ads unsatisfiable, all confirmed by the evaluator",
		verdicts, pairs, len(unsatLefts))
}

// genAd builds a random ad: a handful of typed attributes plus a
// constraint of 1–3 conjuncts drawn from shapes that exercise every
// verdict path — numeric bounds and intervals (satisfiable and not),
// references to attributes the peer may not define, type clashes (the
// attribute pool mixes int and string values for the same names),
// impure guards, occasional cycles, and names the ad binds to the
// peer's attributes (Memory = other.Disk), which an unqualified
// reference then reads from the ad itself.
func genAd(rng *rand.Rand, kind string) *classad.Ad {
	ad := classad.NewAd()
	ad.Set("Type", classad.Lit(classad.Str(kind)))
	attrs := []string{"Memory", "Disk", "Mips", "Arch", "Pool"}
	for _, name := range attrs {
		switch rng.Intn(5) {
		case 0: // skip: attribute absent
		case 1:
			ad.Set(name, classad.Lit(classad.Int(int64(rng.Intn(256)))))
		case 2:
			ad.Set(name, classad.Lit(classad.Str(fmt.Sprintf("v%d", rng.Intn(4)))))
		case 3:
			ad.Set(name, classad.Lit(classad.Real(rng.Float64()*100)))
		case 4: // bound to self, non-ground
			ad.Set(name, classad.OtherAttr(attrs[rng.Intn(len(attrs))]))
		}
	}
	if rng.Intn(8) == 0 { // occasional reference cycle
		ad.Set("CycA", classad.Attr("CycB"))
		ad.Set("CycB", classad.Attr("CycA"))
	}
	n := 1 + rng.Intn(3)
	constraint := genConjunct(rng, attrs)
	for i := 1; i < n; i++ {
		constraint = classad.NewBinary(classad.OpAnd, constraint, genConjunct(rng, attrs))
	}
	ad.Set("Constraint", constraint)
	if rng.Intn(2) == 0 {
		ad.Set("Rank", classad.OtherAttr(attrs[rng.Intn(len(attrs))]))
	}
	return ad
}

func genConjunct(rng *rand.Rand, attrs []string) classad.Expr {
	name := attrs[rng.Intn(len(attrs))]
	ref := classad.OtherAttr(name)
	ops := []classad.Op{classad.OpLt, classad.OpLe, classad.OpGt,
		classad.OpGe, classad.OpEq, classad.OpNe}
	op := ops[rng.Intn(len(ops))]
	switch rng.Intn(9) {
	case 0: // numeric bound, often unmeetable
		return classad.NewBinary(op, ref, classad.Lit(classad.Int(int64(rng.Intn(512)))))
	case 1: // string equality against the value pool
		return classad.NewBinary(classad.OpEq, ref, classad.Lit(classad.Str(fmt.Sprintf("v%d", rng.Intn(4)))))
	case 2: // reference to an attribute no generator ever emits
		return classad.NewBinary(op, classad.OtherAttr("NoSuchAttr"),
			classad.Lit(classad.Int(1)))
	case 3: // impure guard: must never earn a verdict on its own
		return classad.NewBinary(classad.OpGt,
			classad.NewCall("random", classad.Lit(classad.Int(100))),
			classad.Lit(classad.Int(int64(rng.Intn(120)))))
	case 4: // self vs other bound
		return classad.NewBinary(op, ref, classad.SelfAttr(name))
	case 5: // literal constant, sometimes plain false
		return classad.Lit(classad.Bool(rng.Intn(3) != 0))
	case 6: // cycle reference (undefined unless the cycle was emitted)
		return classad.NewBinary(classad.OpOr, classad.Attr("CycA"),
			classad.NewBinary(op, ref, classad.Lit(classad.Int(int64(rng.Intn(256))))))
	case 7: // interval over both spellings, sometimes empty: one range
		// when the ad leaves name to the peer, two when it binds name
		lo, hi := classad.Lit(classad.Int(int64(rng.Intn(256)))), classad.Lit(classad.Int(int64(rng.Intn(256))))
		return classad.NewBinary(classad.OpAnd,
			classad.NewBinary(classad.OpGt, ref, lo),
			classad.NewBinary(classad.OpLt, classad.Attr(name), hi))
	default: // unqualified reference: self-then-other resolution
		return classad.NewBinary(op, classad.Attr(name),
			classad.Lit(classad.Int(int64(rng.Intn(256)))))
	}
}
