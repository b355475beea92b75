package modelcheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// RenderTrace replays a counterexample schedule against a fresh,
// instrumented world and renders what happened, step by step: the
// world's trace lines narrate its own actions, and the matchmakers,
// customer daemons and resource daemons log theirs in the log the live
// daemons keep (match, claim_ok, claim_failed, match_fenced,
// claim_withdrawn, preempted, ...), so the events read like `cstatus
// -trace` output for the violating execution. The schedule replays
// deterministically and renders the same on every replay, so the
// rendered trace is the reproduction.
func RenderTrace(cfg Config, schedule []Action) (string, error) {
	sys, err := newSystem(&cfg)
	if err != nil {
		return "", err
	}
	o := obs.New()
	w := sys.newWorld(o)
	for _, a := range schedule {
		w.apply(a)
	}

	var b strings.Builder
	if len(w.violations) == 0 {
		b.WriteString("schedule replayed clean (no violation)\n")
	}
	for _, v := range w.violations {
		fmt.Fprintf(&b, "counterexample %s: %s\n", v.Code, v.Detail)
	}
	b.WriteString("\nschedule:\n")
	for i, a := range schedule {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, a)
	}
	b.WriteString("\ntrace:\n")
	for _, line := range w.trace {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	events := o.Events().Select("", 0)
	if len(events) > 0 {
		// What differs between replays of one schedule does not render:
		// the sessions the negotiators mint at random read s1, s2, ...
		// in order of first use, and wall-clock claim latency is left
		// out.
		sessions := map[string]string{}
		b.WriteString("\nevents:\n")
		for _, ev := range events {
			fmt.Fprintf(&b, "  [%s] %s", ev.Src, ev.Name)
			for _, k := range sortedKeys(ev.Fields) {
				v := ev.Fields[k]
				switch k {
				case "latency_ms":
					continue
				case "session":
					if sessions[v] == "" {
						sessions[v] = fmt.Sprintf("s%d", len(sessions)+1)
					}
					v = sessions[v]
				}
				fmt.Fprintf(&b, " %s=%s", k, v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
