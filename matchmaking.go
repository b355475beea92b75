// Package matchmaking is a Go implementation of the classified-
// advertisement (classad) matchmaking framework of Raman, Livny and
// Solomon, "Matchmaking: Distributed Resource Management for High
// Throughput Computing" (HPDC 1998) — the resource management
// architecture of the Condor high-throughput computing system.
//
// The package is a facade over the implementation packages:
//
//   - the classad language: Parse, ParseExpr, Ad, Expr, Value — a
//     semi-structured data model that folds the query language into
//     the data (constraints are attributes), with three-valued logic
//     over undefined/error values;
//   - pairwise matching: Match, EvalConstraint, EvalRank — the
//     symmetric bilateral match of paper §3.2;
//   - the matchmaker: NewMatchmaker — negotiation cycles with rank
//     selection, fair share from past usage, group matching, gang
//     (co-allocation) matching, and match-failure analysis;
//   - the agents and pool daemons: NewResource, NewCustomer,
//     NewManager, NewResourceDaemon, NewCustomerDaemon — advertising,
//     match notification and claiming over TCP, with authorization
//     tickets and optional HMAC challenge-response;
//   - the simulation substrate: NewSimulation — a deterministic
//     discrete-event cluster for pool-scale experiments, plus the
//     conventional queue-scheduler baseline (NewQueueScheduler).
//
// Quick start:
//
//	machine := matchmaking.MustParse(matchmaking.Figure1Source)
//	job := matchmaking.MustParse(matchmaking.Figure2Source)
//	res := matchmaking.Match(job, machine)
//	fmt.Println(res.Matched, res.LeftRank, res.RightRank)
package matchmaking

import (
	"repro/internal/agent"
	"repro/internal/baseline"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/pool"
	"repro/internal/sim"
)

// ---- classad language ----

// Ad is a classified advertisement: an ordered, case-insensitive
// mapping from attribute names to expressions.
type Ad = classad.Ad

// Expr is a parsed classad expression.
type Expr = classad.Expr

// Value is the result of evaluating an expression: integer, real,
// string, boolean, undefined, error, list, or nested ad.
type Value = classad.Value

// Env supplies time and randomness to evaluation.
type Env = classad.Env

// MatchResult reports a pairwise match test.
type MatchResult = classad.MatchResult

// SyntaxError is a lexical or parse failure.
type SyntaxError = classad.SyntaxError

// NewAd returns an empty classad.
func NewAd() *Ad { return classad.NewAd() }

// Parse parses a classad in bracketed or bare attribute-list form.
func Parse(src string) (*Ad, error) { return classad.Parse(src) }

// MustParse is Parse that panics on error.
func MustParse(src string) *Ad { return classad.MustParse(src) }

// ParseMulti parses whitespace-separated bracketed ads.
func ParseMulti(src string) ([]*Ad, error) { return classad.ParseMulti(src) }

// ParseExpr parses a single expression.
func ParseExpr(src string) (Expr, error) { return classad.ParseExpr(src) }

// MustParseExpr is ParseExpr that panics on error.
func MustParseExpr(src string) Expr { return classad.MustParseExpr(src) }

// EvalString parses and evaluates an expression against an ad.
func EvalString(src string, ad *Ad) (Value, error) { return classad.EvalString(src, ad) }

// Match tests two ads for bilateral compatibility and evaluates their
// mutual ranks.
func Match(left, right *Ad) MatchResult { return classad.Match(left, right) }

// MatchEnv is Match with an explicit environment.
func MatchEnv(left, right *Ad, env *Env) MatchResult { return classad.MatchEnv(left, right, env) }

// EvalConstraint evaluates a's constraint against other; only a result
// of true satisfies it.
func EvalConstraint(a, other *Ad, env *Env) bool { return classad.EvalConstraint(a, other, env) }

// EvalRank evaluates a's Rank of other; non-numeric results count 0.
func EvalRank(a, other *Ad, env *Env) float64 { return classad.EvalRank(a, other, env) }

// MatchesQuery is the one-way match used by status tools.
func MatchesQuery(query, candidate *Ad, env *Env) bool {
	return classad.MatchesQuery(query, candidate, env)
}

// FixedEnv returns a deterministic environment for tests and
// simulations.
func FixedEnv(now, seed int64) *Env { return classad.FixedEnv(now, seed) }

// PartialEval rewrites an expression with everything determined by
// self folded to literals, leaving other.* and unresolvable names
// symbolic — the residual requirement tooling shows administrators.
// The rewriting is exact: the residual evaluates identically to the
// original in any future match involving self.
func PartialEval(e Expr, self *Ad, env *Env) Expr {
	return classad.PartialEval(e, self, env)
}

// The paper's example ads.
const (
	// Figure1Source is the workstation ad of the paper's Figure 1.
	Figure1Source = classad.Figure1Source
	// Figure2Source is the job ad of the paper's Figure 2.
	Figure2Source = classad.Figure2Source
)

// Protocol attribute names.
const (
	AttrConstraint   = classad.AttrConstraint
	AttrRequirements = classad.AttrRequirements
	AttrRank         = classad.AttrRank
	AttrType         = classad.AttrType
	AttrName         = classad.AttrName
	AttrOwner        = classad.AttrOwner
	AttrContact      = classad.AttrContact
	AttrTicket       = classad.AttrTicket
)

// ---- matchmaker ----

// Matchmaker runs negotiation cycles.
type Matchmaker = matchmaker.Matchmaker

// MatchmakerConfig tunes the negotiation algorithm.
type MatchmakerConfig = matchmaker.Config

// MatchPair is one request/offer pairing from a cycle.
type MatchPair = matchmaker.Match

// Analysis explains a request's match prospects.
type Analysis = matchmaker.Analysis

// GangMatch is a co-allocation assignment.
type GangMatch = matchmaker.GangMatch

// NewMatchmaker builds a matchmaker.
func NewMatchmaker(cfg MatchmakerConfig) *Matchmaker { return matchmaker.New(cfg) }

// Analyze explains why (or whether) a request matches a pool.
func Analyze(req *Ad, offers []*Ad, env *Env) *Analysis {
	return matchmaker.Analyze(req, offers, env)
}

// MatchGang solves a nested-classad co-allocation request.
func MatchGang(req *Ad, offers []*Ad, env *Env) (GangMatch, bool) {
	return matchmaker.MatchGang(req, offers, env)
}

// BestOffer picks the offer a single request should be introduced to.
func BestOffer(req *Ad, offers []*Ad, env *Env) (int, MatchPair) {
	return matchmaker.BestOffer(req, offers, env)
}

// ---- agents, collector, pool ----

// Resource is a Resource-owner Agent.
type Resource = agent.Resource

// Customer is a Customer Agent with a job queue.
type Customer = agent.Customer

// Claim is an established working relationship.
type Claim = agent.Claim

// Store is the collector's advertisement store.
type Store = collector.Store

// CollectorClient talks to a collector daemon.
type CollectorClient = collector.Client

// Manager is the pool manager (collector + negotiator).
type Manager = pool.Manager

// ManagerConfig tunes a Manager.
type ManagerConfig = pool.ManagerConfig

// ResourceDaemon serves the claiming protocol for an RA.
type ResourceDaemon = pool.ResourceDaemon

// CustomerDaemon receives match notifications and claims for a CA.
type CustomerDaemon = pool.CustomerDaemon

// NewResource builds a Resource-owner Agent around a policy ad.
func NewResource(base *Ad, env *Env) *Resource { return agent.NewResource(base, env) }

// NewCustomer builds a Customer Agent for an owner.
func NewCustomer(owner string, env *Env) *Customer { return agent.NewCustomer(owner, env) }

// NewStore builds an advertisement store.
func NewStore(env *Env) *Store { return collector.New(env) }

// NewManager builds a pool manager.
func NewManager(cfg ManagerConfig) *Manager { return pool.NewManager(cfg) }

// NewResourceDaemon wraps an RA in a TCP daemon.
func NewResourceDaemon(ra *Resource, collectorAddr string, lifetime int64, logf func(string, ...any)) *ResourceDaemon {
	return pool.NewResourceDaemon(ra, collectorAddr, lifetime, logf)
}

// NewCustomerDaemon wraps a CA in a TCP daemon.
func NewCustomerDaemon(ca *Customer, collectorAddr string, lifetime int64, logf func(string, ...any)) *CustomerDaemon {
	return pool.NewCustomerDaemon(ca, collectorAddr, lifetime, logf)
}

// ---- simulation substrate and baseline ----

// Simulation is a configured discrete-event pool experiment.
type Simulation = sim.Simulation

// SimConfig assembles a simulation.
type SimConfig = sim.Config

// PoolSpec configures the synthetic machine population.
type PoolSpec = sim.PoolSpec

// JobSpec configures the synthetic workload.
type JobSpec = sim.JobSpec

// SimMetrics aggregates a run.
type SimMetrics = sim.Metrics

// SimScheduler decides cycle assignments (matchmaker or baseline).
type SimScheduler = sim.Scheduler

// NewSimulation builds a simulation.
func NewSimulation(cfg SimConfig) *Simulation { return sim.New(cfg) }

// NewQueueScheduler builds the conventional queue baseline
// (per-architecture queues over dedicated machines).
func NewQueueScheduler(env *Env) SimScheduler { return baseline.New(env) }

// NewIntrusiveQueueScheduler builds the policy-blind baseline variant.
func NewIntrusiveQueueScheduler(env *Env) SimScheduler { return baseline.NewIntrusive(env) }
