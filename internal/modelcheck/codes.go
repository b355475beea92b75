// Package modelcheck is a deterministic, exhaustive small-scope
// explorer for the pool protocol. It runs the shipped collector store,
// negotiation cycle (one pool.Manager per negotiator, its MATCHes
// queued by the checker's notifier), customer daemons and resource
// daemons, the daemons talking over netx's in-process transport, and
// owns every source of nondeterminism — message delivery order, lost
// claim replies, advertisement refresh timing, lease expiry,
// negotiator takeover — walking the schedule space with a
// depth-bounded DFS, pruning on canonical state fingerprints. Safety invariants (MC1xx)
// are checked after every action of every schedule; the liveness
// obligation (MC201) runs under a deterministic fair scheduler with
// loop detection. A violated invariant yields a minimal counterexample
// schedule that replays byte-for-byte, renderable as a human-readable
// trace through the obs event/span machinery.
//
// The point is the same as the repo's static analyzers, one layer up:
// the protocol invariants DESIGN.md states in prose are enforced by
// machine. A change that reintroduces the claimed-offer livelock or
// weakens epoch fencing fails `make mc`, not a code review.
package modelcheck

// CodeInfo is one row of the model checker's invariant vocabulary: a
// stable code, whether it is a safety or liveness property, and a
// one-line summary. The DESIGN.md §13 table is checked against this
// list by a test, so a new invariant that skips the docs fails
// `make lint-codes`.
type CodeInfo struct {
	Code string
	// Kind is "safety" (checked after every action of every explored
	// schedule) or "liveness" (checked under the fair scheduler).
	Kind    string
	Summary string
}

// Stable invariant codes. MC1xx are safety properties, MC2xx liveness.
const (
	// CodeSingleLeader: at most one negotiator ever holds the
	// leadership lease at any given epoch.
	CodeSingleLeader = "MC101"
	// CodeStaleEpochClaim: no claim is granted on behalf of a MATCH
	// stamped with an epoch below its customer daemon's high-water
	// mark, read before the delivery.
	CodeStaleEpochClaim = "MC102"
	// CodeClaimExclusive: every claim a resource daemon holds is for a
	// job its customer daemon has Running on that machine, and no job
	// holds two machines.
	CodeClaimExclusive = "MC103"
	// CodeLedgerConservation: charges equal the claims the customer
	// daemons saw granted, one for one, and a new leader loads every
	// charge the last publish held.
	CodeLedgerConservation = "MC104"
	// CodeUnsatisfiableMatch: the matchmaker never emits a match the
	// bilateral analyzer proves can never satisfy both parties.
	CodeUnsatisfiableMatch = "MC105"
	// CodeStarvation: under fair scheduling, every satisfiable finite
	// request eventually runs to completion.
	CodeStarvation = "MC201"
)

// AllCodes returns every invariant the checker can report, in code
// order.
func AllCodes() []CodeInfo {
	return []CodeInfo{
		{CodeSingleLeader, "safety", "two negotiators held the leadership lease at the same epoch"},
		{CodeStaleEpochClaim, "safety", "a claim was granted from a MATCH bearing an epoch below its customer's high-water mark"},
		{CodeClaimExclusive, "safety", "a machine held a claim for a job its customer does not have running there, or a job held two machines"},
		{CodeLedgerConservation, "safety", "fair-share charges diverged from the claims the customers saw granted, or a new leader loaded less usage than the last publish held"},
		{CodeUnsatisfiableMatch, "safety", "the matchmaker emitted a match the bilateral analyzer proves unsatisfiable"},
		{CodeStarvation, "liveness", "a satisfiable finite job never completed under fair scheduling"},
	}
}
