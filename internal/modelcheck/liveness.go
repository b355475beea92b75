package modelcheck

import (
	"fmt"
	"strings"

	"repro/internal/agent"
)

// LivenessResult reports one fair-schedule run.
type LivenessResult struct {
	// Rounds is how many fair rounds ran.
	Rounds int
	// Violation is the MC201 counterexample (or a safety violation the
	// run tripped over), nil when every obligation completed.
	Violation *Violation
	// Starved names the finite jobs that never completed when
	// Violation is set.
	Starved []string
}

// CheckLiveness runs the scenario under a deterministic fair
// scheduler and checks MC201: every satisfiable finite job eventually
// runs to completion. Each round, in fixed order: every machine
// re-advertises, every idle job (whose Delay has passed) enters the
// pool, the first negotiator runs a cycle, every pending MATCH is
// delivered FIFO, and every running finite job completes one work
// unit. This is the fairness assumption of the paper's opportunistic
// model — everyone gets to act every round — so a job that still
// starves is starved by the protocol, not the schedule.
//
// Starvation is detected by fingerprint recurrence: the scheduler is
// deterministic, so revisiting a canonical state with obligations
// outstanding proves the system is in a loop that never serves them —
// the claimed-offer livelock of ROADMAP item 1 is exactly such a loop.
func CheckLiveness(cfg Config, maxRounds int) (*LivenessResult, error) {
	if maxRounds <= 0 {
		maxRounds = 32
	}
	sys, err := newSystem(&cfg)
	if err != nil {
		return nil, err
	}
	w := sys.newWorld(nil)
	res := &LivenessResult{}
	seen := map[string]int{}
	for round := 1; round <= maxRounds; round++ {
		res.Rounds = round
		w.tracef("--- fair round %d ---", round)
		for i := range w.machines {
			w.apply(Action{Op: "advertise", Arg: i})
		}
		for i, spec := range cfg.Jobs {
			if round > spec.Delay && w.arrival(i) != nil {
				w.apply(Action{Op: "submit", Arg: i})
			}
		}
		w.apply(Action{Op: "negotiate", Arg: 0})
		for len(w.pending) > 0 {
			w.apply(Action{Op: "deliver", Arg: 0})
		}
		for i, spec := range cfg.Jobs {
			if spec.Work >= 0 && w.job(i).Status == agent.JobRunning {
				w.apply(Action{Op: "complete", Arg: i})
			}
		}
		if len(w.violations) > 0 {
			v := w.violations[0]
			v.Trace = append([]string(nil), w.trace...)
			res.Violation = v
			res.Starved = starved(w)
			return res, nil
		}
		if len(starved(w)) == 0 {
			return res, nil // every obligation met
		}
		fp := w.fingerprint()
		if prev, ok := seen[fp]; ok {
			res.Starved = starved(w)
			res.Violation = &Violation{
				Code: CodeStarvation,
				Detail: fmt.Sprintf(
					"no progress: rounds %d and %d reach the same state with %s still unserved",
					prev, round, strings.Join(res.Starved, ", ")),
				Trace: append([]string(nil), w.trace...),
			}
			return res, nil
		}
		seen[fp] = round
	}
	res.Starved = starved(w)
	res.Violation = &Violation{
		Code: CodeStarvation,
		Detail: fmt.Sprintf("%s still unserved after %d fair rounds",
			strings.Join(res.Starved, ", "), maxRounds),
		Trace: append([]string(nil), w.trace...),
	}
	return res, nil
}

// starved lists the finite jobs that have not completed.
func starved(w *World) []string {
	var out []string
	for i, spec := range w.sys.cfg.Jobs {
		if spec.Work >= 0 && w.job(i).Status != agent.JobCompleted {
			out = append(out, w.sys.jobNames[i])
		}
	}
	return out
}
