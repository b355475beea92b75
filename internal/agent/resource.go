// Package agent implements the two agent roles of paper §4:
//
//   - the Resource-owner Agent (RA), "responsible for enforcing the
//     policies stipulated by resource owners": it probes the resource,
//     encapsulates state and policy in a classad, mints authorization
//     tickets, and at claim time re-verifies both the ticket and its
//     constraints against *current* state — the weak-consistency
//     design of §3.2;
//   - the Customer Agent (CA), which "maintains per-customer queues of
//     submitted jobs, represented as lists of classads", turns idle
//     jobs into request ads, claims matched resources, and resubmits
//     jobs evicted by preemption.
package agent

import (
	"fmt"
	"sync"

	"repro/internal/classad"
	"repro/internal/protocol"
)

// MachineState is the RA's activity state, advertised in the State
// attribute.
type MachineState string

// The RA state machine: Unclaimed -> Claimed -> (Preempting ->)
// Unclaimed. Matched is a transient the protocol traverses between
// notification and claim; it is not advertised.
const (
	StateUnclaimed  MachineState = "Unclaimed"
	StateClaimed    MachineState = "Claimed"
	StatePreempting MachineState = "Preempting"
	// StateOwner marks a machine whose interactive owner is active;
	// its policy usually refuses all matches in this state.
	StateOwner MachineState = "Owner"
)

// Claim records the working relationship the claiming protocol
// establishes.
type Claim struct {
	// Customer is the owner of the claiming job.
	Customer string
	// Job is the request ad the claim was granted to.
	Job *classad.Ad
	// Rank is the RA's rank of the job at claim time; a later claim
	// preempts only if the RA ranks it strictly higher.
	Rank float64
	// Started is the claim's start, in env time.
	Started int64
}

// Resource is a Resource-owner Agent.
type Resource struct {
	mu sync.Mutex
	// base is the owner-supplied ad: capabilities plus the policy
	// expressions (Constraint, Rank). The RA never mutates it.
	base *classad.Ad
	// dynamic holds probe results (LoadAvg, KeyboardIdle, DayTime,
	// ...), merged over base at advertisement and claim time. Values
	// may be live expressions (e.g. time()-based keyboard idleness)
	// so that claim-time re-validation sees genuinely current state;
	// advertisements snapshot them to literals.
	dynamic map[string]classad.Expr
	env     *classad.Env

	state  MachineState
	ticket string // ticket of the outstanding advertisement
	claim  *Claim

	// preempted counts claims evicted in favour of better ones, and
	// evictions counts owner-activity evictions; benchmarks read
	// both.
	preempted int
	evictions int
}

// NewResource builds an RA around an owner-supplied ad. The ad should
// carry a Name; Constraint/Rank express the owner's policy (a missing
// Constraint accepts everyone).
func NewResource(base *classad.Ad, env *classad.Env) *Resource {
	if env == nil {
		env = classad.DefaultEnv()
	}
	return &Resource{
		base:    base,
		dynamic: make(map[string]classad.Expr),
		env:     env,
		state:   StateUnclaimed,
	}
}

// Name returns the resource's advertised name.
func (r *Resource) Name() string {
	s, _ := r.base.Eval(classad.AttrName).StringVal()
	return s
}

// SetDynamic records a probe result that will appear in subsequent
// advertisements and in claim-time policy evaluation: the RA
// "periodically probes the resource to determine its current state".
func (r *Resource) SetDynamic(name string, v classad.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dynamic[name] = classad.Lit(v)
}

// PublishClock installs the standard time-derived probes as live
// expressions: DayTime (seconds since midnight, the paper's Figure 1
// attribute) and CurrentTime. Night-only owner policies then evaluate
// correctly both in fresh advertisements and at claim time.
func (r *Resource) PublishClock() {
	r.SetDynamicExpr("DayTime", classad.NewCall("dayTime"))
	r.SetDynamicExpr("CurrentTime", classad.NewCall("time"))
}

// SetDynamicExpr records a live probe: the expression is re-evaluated
// whenever the RA's current state is consulted, so a claim arriving
// long after the last advertisement still sees up-to-date values —
// e.g. KeyboardIdle = time() - idleSince. Advertisements freeze the
// expression's current value, which is exactly what makes a stored ad
// stale.
func (r *Resource) SetDynamicExpr(name string, e classad.Expr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dynamic[name] = e
}

// State reports the current machine state.
func (r *Resource) State() MachineState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// CurrentClaim returns a copy of the active claim, if any.
func (r *Resource) CurrentClaim() (Claim, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim == nil {
		return Claim{}, false
	}
	return *r.claim, true
}

// Stats reports preemption and eviction counts.
func (r *Resource) Stats() (preempted, evictions int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.preempted, r.evictions
}

// currentAdLocked composes base + dynamic + state into the ad the RA
// stands behind right now.
func (r *Resource) currentAdLocked() *classad.Ad {
	ad := r.base.Copy()
	for k, e := range r.dynamic {
		ad.Set(k, e)
	}
	ad.SetString("State", string(r.state))
	if r.claim != nil {
		ad.SetReal("CurrentRank", r.claim.Rank)
		ad.SetString("RemoteOwner", r.claim.Customer)
	}
	return ad
}

// Advertise composes the current advertisement, minting a fresh
// authorization ticket that a subsequent claim must present (paper §4:
// the advertising protocol "allows an RA to include an authorization
// ticket with its ad"). The ticket is embedded in the ad so the
// matchmaker can forward it to the matched customer.
func (r *Resource) Advertise() (*classad.Ad, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ticket, err := protocol.NewTicket()
	if err != nil {
		return nil, err
	}
	r.ticket = ticket
	ad := r.currentAdLocked()
	// Snapshot live probes to literals: the advertisement describes
	// the resource at this instant, and ages from here.
	for k := range r.dynamic {
		v := ad.EvalEnv(k, r.env)
		ad.Set(k, classad.Lit(v))
	}
	ad.SetString(classad.AttrTicket, ticket)
	return ad, nil
}

// ClaimOutcome reports a claim decision.
type ClaimOutcome struct {
	Accepted bool
	// Reason explains a rejection.
	Reason string
	// Preempted is the claim that was evicted to make room, if any.
	Preempted *Claim
}

// RequestClaim runs the RA side of the claiming protocol (paper §4):
// "The RA accepts the resource request only if the ticket matches the
// one that it gave the pool manager, and the request matches the RA's
// constraints with respect to the updated state of the request and
// resource, which may have changed since the last advertisement."
//
// When the machine is already claimed, the request is accepted only if
// the RA ranks it strictly higher than the running claim, in which
// case the incumbent is preempted — the opportunistic-scheduling rule
// of §4 ("it is still interested in hearing from higher priority
// customers"). What constitutes higher priority is the RA's Rank
// expression, i.e. entirely under owner control.
func (r *Resource) RequestClaim(job *classad.Ad, ticket string) ClaimOutcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ticket == "" || ticket != r.ticket {
		return ClaimOutcome{Reason: "authorization ticket mismatch"}
	}
	// Weak consistency: re-verify both constraints against the
	// *current* ad, not the one that was matched.
	cur := r.currentAdLocked()
	if !classad.EvalConstraint(cur, job, r.env) {
		return ClaimOutcome{Reason: "resource constraint no longer satisfied"}
	}
	if !classad.EvalConstraint(job, cur, r.env) {
		return ClaimOutcome{Reason: "request constraint no longer satisfied"}
	}
	rank := classad.EvalRank(cur, job, r.env)
	var preempted *Claim
	if r.claim != nil {
		if rank <= r.claim.Rank {
			return ClaimOutcome{Reason: fmt.Sprintf(
				"claimed by %s at rank %g (offered rank %g)",
				r.claim.Customer, r.claim.Rank, rank)}
		}
		old := *r.claim
		preempted = &old
		r.preempted++
	}
	owner, _ := job.Eval(classad.AttrOwner).StringVal()
	r.claim = &Claim{
		Customer: owner,
		Job:      job,
		Rank:     rank,
		Started:  r.env.Now(),
	}
	r.state = StateClaimed
	// The presented ticket is consumed; the next advertisement mints
	// a fresh one.
	r.ticket = ""
	return ClaimOutcome{Accepted: true, Preempted: preempted}
}

// ForceClaim installs a claim with no ticket or constraint checks.
// It models dispatch by a conventional scheduler that has no notion of
// owner policies (the baseline of experiment E7) and the ablation that
// removes claim-time re-validation (E5); the matchmaking path never
// uses it.
func (r *Resource) ForceClaim(job *classad.Ad) Claim {
	r.mu.Lock()
	defer r.mu.Unlock()
	owner, _ := job.Eval(classad.AttrOwner).StringVal()
	if r.claim != nil {
		r.preempted++
	}
	r.claim = &Claim{
		Customer: owner,
		Job:      job,
		Rank:     0,
		Started:  r.env.Now(),
	}
	r.state = StateClaimed
	r.ticket = ""
	return *r.claim
}

// Release ends the active claim (customer side finished or gave up):
// "When the CA finishes using the resource, it relinquishes the claim,
// and the RA advertises itself as unclaimed."
func (r *Resource) Release(customer string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim == nil {
		return fmt.Errorf("agent: release on unclaimed resource %s", r.Name())
	}
	if customer != "" && r.claim.Customer != customer {
		return fmt.Errorf("agent: release by %s but claim is held by %s",
			customer, r.claim.Customer)
	}
	r.claim = nil
	r.state = StateUnclaimed
	return nil
}

// Withdraw ends the active claim if it is the one granted to job (the
// same ad RequestClaim accepted), reporting whether it did. A claim
// whose acceptance never reached its customer is withdrawn this way:
// the customer saw its claim fail and will never release it, and a
// claim that has replaced it since must stand.
func (r *Resource) Withdraw(job *classad.Ad) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim == nil || r.claim.Job != job {
		return false
	}
	r.claim = nil
	r.state = StateUnclaimed
	return true
}

// Evict forcibly ends the active claim because the owner reclaimed the
// machine (keyboard touched, load rose). Returns the evicted claim.
func (r *Resource) Evict() (Claim, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim == nil {
		return Claim{}, false
	}
	old := *r.claim
	r.claim = nil
	r.state = StateOwner
	r.evictions++
	return old, true
}

// OwnerReturned marks interactive owner activity without an active
// claim; OwnerLeft returns the machine to the pool.
func (r *Resource) OwnerReturned() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim == nil {
		r.state = StateOwner
	}
}

// OwnerLeft marks the machine idle again.
func (r *Resource) OwnerLeft() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim == nil {
		r.state = StateUnclaimed
	}
}

// VerifyChallenge implements the RA side of the claiming protocol's
// optional challenge-response: prove the peer knows the ticket.
func (r *Resource) VerifyChallenge(nonce, mac string) bool {
	r.mu.Lock()
	ticket := r.ticket
	r.mu.Unlock()
	return ticket != "" && protocol.VerifyResponse(ticket, nonce, mac)
}
