package analysis

// CodeInfo is one row of the diagnostic vocabulary: a stable code, the
// severity it is always reported at, and a one-line summary. The
// DESIGN.md code table is checked against this list by a test, so a
// new code that skips the docs fails `make lint-codes`.
type CodeInfo struct {
	Code     string
	Severity Severity
	Summary  string
}

// AllCodes returns every diagnostic code the analyzers can emit, in
// code order. CAD0xx are expression-level type errors, CAD1xx
// reference resolution, CAD2xx unilateral constraint analysis, CAD3xx
// bilateral (cross-ad) analysis, CAD4xx index friendliness.
func AllCodes() []CodeInfo {
	return []CodeInfo{
		{CodeTypeConflict, Error, "comparison can only yield `undefined`/`error` (type conflict)"},
		{CodeUnknownBuiltin, Error, "call to an unknown builtin (with suggestion)"},
		{CodeBadArity, Error, "builtin called with an argument count outside its table row's range"},
		{CodeSelfNeverBinds, Warning, "`self.X` can never bind (with did-you-mean)"},
		{CodeUnknownAttr, Warning, "attribute is neither local nor well-known (with did-you-mean)"},
		{CodeUnsatisfiable, Error, "constraint conjunct(s) provably unsatisfiable"},
		{CodeTautology, Warning, "constraint conjunct is a tautology"},
		{CodeConstantRank, Warning, "`Rank` is constant — cannot order candidates"},
		{CodePairContradiction, Error, "conjunct provably never true against the peer ad (any environment)"},
		{CodeCrossTypeClash, Error, "comparison against a peer attribute of a clashing type"},
		{CodePairRankUndefined, Warning, "`Rank` evaluates to `undefined`/`error` against the peer ad"},
		{CodeSchemaTypeConflict, Warning, "attribute's type disagrees across the ad corpus"},
		{CodeDeadAd, Warning, "dead ad: no counterpart in the corpus can match it"},
		{CodeUnindexable, Warning, "no conjunct of the constraint is indexable — full scan every cycle"},
		{CodeIndexUnsat, Error, "conjunct compares against a literal `undefined`/`error` value"},
	}
}
