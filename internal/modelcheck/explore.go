package modelcheck

import "sort"

// Result summarizes one exploration run.
type Result struct {
	// Schedules is how many distinct action prefixes were executed —
	// every node of the DFS replays its whole prefix against a fresh
	// world, so each counts as one fully-executed schedule.
	Schedules int
	// States is how many distinct canonical fingerprints were reached.
	States int
	// Deepest is the longest schedule executed.
	Deepest int
	// Truncated reports that MaxSchedules ended exploration early.
	Truncated bool
	// Violations holds one counterexample per violated invariant code
	// (the first schedule that reached it), sorted by code.
	Violations []*Violation
}

// Explore walks the scenario's schedule space with a depth-bounded
// DFS. Every source of nondeterminism is an explicit Action, so the
// walk is exhaustive up to MaxDepth over the canonical state space:
// message delivery orders, lost claim replies, advertisement refresh
// points, lease expiry and negotiator takeover interleavings are all
// schedules.
//
// The explorer is replay-based: the real components (collector store,
// matchmakers, customer and resource daemons) cannot snapshot or undo,
// so each DFS node rebuilds a fresh world and replays its action
// prefix. Prefix replay makes every counterexample trivially
// reproducible — the Violation's Schedule is the reproduction, byte
// for byte.
//
// Pruning: a state fingerprint already visited with at least as much
// remaining depth cannot lead anywhere new and is cut. Violating
// states are recorded (first schedule to reach each code wins) and
// their subtrees cut — every extension would contain the same
// violation.
func Explore(cfg Config) (*Result, error) {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 8
	}
	sys, err := newSystem(&cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	seen := map[string]int{}
	found := map[string]bool{} // the codes res.Violations holds
	stop := false

	var dfs func(prefix []Action, remaining int)
	dfs = func(prefix []Action, remaining int) {
		if stop {
			return
		}
		if cfg.MaxSchedules > 0 && res.Schedules >= cfg.MaxSchedules {
			res.Truncated = true
			stop = true
			return
		}
		res.Schedules++
		if len(prefix) > res.Deepest {
			res.Deepest = len(prefix)
		}
		w := sys.newWorld(nil)
		for _, a := range prefix {
			w.apply(a)
		}
		if len(w.violations) > 0 {
			for _, v := range w.violations {
				if found[v.Code] {
					continue
				}
				found[v.Code] = true
				v.Schedule = append([]Action(nil), prefix...)
				v.Trace = append([]string(nil), w.trace...)
				res.Violations = append(res.Violations, v)
				if cfg.StopOnViolation {
					stop = true
				}
			}
			return // every extension repeats the violation
		}
		fp := w.fingerprint()
		if prev, ok := seen[fp]; ok && prev >= remaining {
			return
		}
		seen[fp] = remaining
		if remaining == 0 {
			return
		}
		for _, a := range w.enabled() {
			dfs(append(prefix, a), remaining-1)
		}
	}
	dfs(nil, cfg.MaxDepth)
	res.States = len(seen)
	sort.Slice(res.Violations, func(i, j int) bool {
		return res.Violations[i].Code < res.Violations[j].Code
	})
	return res, nil
}
