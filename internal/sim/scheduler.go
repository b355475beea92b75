package sim

import (
	"repro/internal/classad"
	"repro/internal/matchmaker"
)

// MatchmakerScheduler adapts the matchmaking algorithm to the
// simulator's Scheduler interface.
type MatchmakerScheduler struct {
	mm *matchmaker.Matchmaker
}

// NewMatchmakerScheduler builds a matchmaking scheduler with fair
// share enabled (the deployed configuration).
func NewMatchmakerScheduler(env *classad.Env) *MatchmakerScheduler {
	return &MatchmakerScheduler{
		mm: matchmaker.New(matchmaker.Config{Env: env, FairShare: true}),
	}
}

// NewMatchmakerSchedulerCfg builds a matchmaking scheduler with an
// explicit configuration (used by the aggregation benchmarks).
func NewMatchmakerSchedulerCfg(cfg matchmaker.Config) *MatchmakerScheduler {
	return &MatchmakerScheduler{mm: matchmaker.New(cfg)}
}

// Name implements Scheduler.
func (s *MatchmakerScheduler) Name() string { return "matchmaker" }

// EnforcesPolicies implements Scheduler: matches respect both sides'
// constraints.
func (s *MatchmakerScheduler) EnforcesPolicies() bool { return true }

// Assign implements Scheduler by running one negotiation cycle over
// the view.
func (s *MatchmakerScheduler) Assign(view *CycleView) []Assignment {
	jobIdx := make(map[*classad.Ad]int, len(view.JobAds))
	for i, ad := range view.JobAds {
		jobIdx[ad] = i
	}
	machIdx := make(map[*classad.Ad]int, len(view.MachineAds))
	for i, ad := range view.MachineAds {
		machIdx[ad] = i
	}
	matches := s.mm.Negotiate(view.JobAds, view.MachineAds)
	out := make([]Assignment, 0, len(matches))
	for _, m := range matches {
		out = append(out, Assignment{Job: jobIdx[m.Request], Machine: machIdx[m.Offer]})
	}
	return out
}
