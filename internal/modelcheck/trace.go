package modelcheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// RenderTrace replays a counterexample schedule against a fresh,
// instrumented world and renders what happened, step by step, through
// the same event machinery the live daemons use: the world emits
// modelcheck events per action and the matchmakers emit their usual
// match/rejection events, so the rendering reads like `cstatus
// -events` output for the violating execution. The schedule replays
// deterministically, so the rendered trace is the reproduction.
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
		b.WriteString("\nevents:\n")
		for _, ev := range events {
			fmt.Fprintf(&b, "  [%s] %s", ev.Src, ev.Name)
			for _, k := range sortedKeys(ev.Fields) {
				fmt.Fprintf(&b, " %s=%s", k, ev.Fields[k])
			}
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
