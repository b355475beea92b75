package sim

import (
	"fmt"
	"testing"

	"repro/internal/classad"
	"repro/internal/matchmaker"
)

// buildSpeedView makes a cycle view with machines of known speeds and
// jobs that rank by other.Mips — the DESIGN.md §7 rank-vs-first-fit
// ablation fixture.
func buildSpeedView(t *testing.T, mips []int64, jobs int) *CycleView {
	t.Helper()
	view := &CycleView{}
	for i, m := range mips {
		ad := classad.NewAd()
		ad.SetString("Type", "Machine")
		ad.SetString("Name", fmt.Sprintf("m%d", i))
		ad.SetString("Arch", "INTEL")
		ad.SetInt("Memory", 128)
		ad.SetInt("Mips", m)
		view.MachineAds = append(view.MachineAds, ad)
	}
	for i := 0; i < jobs; i++ {
		ad := classad.NewAd()
		ad.SetString("Type", "Job")
		ad.SetString("Owner", fmt.Sprintf("u%d", i))
		if err := ad.SetExprString("Constraint", `other.Arch == "INTEL"`); err != nil {
			t.Fatal(err)
		}
		if err := ad.SetExprString("Rank", "other.Mips"); err != nil {
			t.Fatal(err)
		}
		view.JobAds = append(view.JobAds, ad)
	}
	return view
}

// firstFitScheduler is the rank-selection ablation: each job, in queue
// order, takes the first bilaterally compatible machine in scan order.
// It lives here because the matchmaker has no such mode.
type firstFitScheduler struct{ env *classad.Env }

func (firstFitScheduler) Name() string           { return "first-fit" }
func (firstFitScheduler) EnforcesPolicies() bool { return true }

func (s firstFitScheduler) Assign(view *CycleView) []Assignment {
	taken := make([]bool, len(view.MachineAds))
	var out []Assignment
	for ji, job := range view.JobAds {
		for mi, machine := range view.MachineAds {
			if !taken[mi] && classad.MatchEnv(job, machine, s.env).Matched {
				taken[mi] = true
				out = append(out, Assignment{Job: ji, Machine: mi})
				break
			}
		}
	}
	return out
}

func assignedMips(view *CycleView, as []Assignment) (total int64) {
	for _, a := range as {
		m, _ := view.MachineAds[a.Machine].Eval("Mips").IntVal()
		total += m
	}
	return total
}

// TestRankSelectionMaximizesPreference: with jobs preferring fast
// machines, rank-sorted selection assigns exactly the top-k machines
// by Mips; first-fit takes the first k in scan order, which is
// strictly worse whenever a slow machine precedes a fast one.
func TestRankSelectionMaximizesPreference(t *testing.T) {
	// Slow machines deliberately first in scan order.
	mips := []int64{50, 60, 70, 200, 190, 180, 80, 90}
	view := buildSpeedView(t, mips, 3)
	env := classad.FixedEnv(0, 1)

	ranked := NewMatchmakerSchedulerCfg(matchmaker.Config{Env: env})
	firstFit := firstFitScheduler{env}

	ra := ranked.Assign(view)
	fa := firstFit.Assign(view)
	if len(ra) != 3 || len(fa) != 3 {
		t.Fatalf("assignments: ranked=%d firstfit=%d", len(ra), len(fa))
	}
	rankedTotal := assignedMips(view, ra)
	firstFitTotal := assignedMips(view, fa)
	if rankedTotal != 200+190+180 {
		t.Errorf("ranked total Mips = %d, want the top three (570)", rankedTotal)
	}
	if firstFitTotal != 50+60+70 {
		t.Errorf("first-fit total Mips = %d, want the first three (180)", firstFitTotal)
	}
	if rankedTotal <= firstFitTotal {
		t.Errorf("rank selection did not beat first-fit: %d vs %d", rankedTotal, firstFitTotal)
	}
}

// TestRankSelectionFasterCompletionInSim: the end-to-end form — on an
// underloaded heterogeneous pool, rank-seeking jobs run on fast
// machines and finish sooner in wall-clock (virtual) time.
func TestRankSelectionFasterCompletionInSim(t *testing.T) {
	mkCfg := func() Config {
		return Config{
			Pool: PoolSpec{
				Machines:        24,
				DesktopFraction: 0,
				Classes:         4, // Mips 50..200
			},
			// Few jobs: contention never forces slow machines.
			Workload: JobSpec{Jobs: 4, MeanRuntime: 7200},
			Seed:     31,
			Duration: 2 * 86400,
		}
	}
	ranked := New(mkCfg()).Run()

	cfg := mkCfg()
	probe := New(cfg)
	cfg.Scheduler = firstFitScheduler{probe.Env()}
	firstFit := New(cfg).Run()

	t.Logf("ranked:    completed=%d turnaround=%.0f", ranked.Completed, ranked.MeanTurnaround())
	t.Logf("first-fit: completed=%d turnaround=%.0f", firstFit.Completed, firstFit.MeanTurnaround())
	if ranked.Completed != 4 || firstFit.Completed != 4 {
		t.Fatalf("both should finish: %d vs %d", ranked.Completed, firstFit.Completed)
	}
	if ranked.MeanTurnaround() > firstFit.MeanTurnaround() {
		t.Errorf("rank selection turnaround %.0f > first-fit %.0f on an underloaded pool",
			ranked.MeanTurnaround(), firstFit.MeanTurnaround())
	}
}

// TestFirstFitSchedulerStillSound: first-fit is an ablation of match
// quality, never of match validity.
func TestFirstFitSchedulerStillSound(t *testing.T) {
	cfg := Config{
		Pool:     PoolSpec{Machines: 10, DesktopFraction: 0.5, Classes: 2},
		Workload: JobSpec{Jobs: 30, MeanRuntime: 1800},
		Seed:     33,
		Duration: 86400,
	}
	probe := New(cfg)
	cfg.Scheduler = firstFitScheduler{probe.Env()}
	m := New(cfg).Run()
	if m.Completed == 0 {
		t.Error("first-fit completed nothing")
	}
	if m.FailedDispatches != 0 {
		t.Errorf("first-fit produced %d invalid dispatches", m.FailedDispatches)
	}
}
