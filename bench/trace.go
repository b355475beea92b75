package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// hspan is one harness-side span: a call the harness made into the
// program. Spans of one round share the round span as ancestor; Key is
// the job or ad the call was about.
type hspan struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Driver int    `json:"driver"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's base
	End    int64  `json:"end_ns"`
}

// tracer keeps one goroutine's spans in memory. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	driver int
	base   time.Time
	spans  []hspan
}

func (t *tracer) begin(parent int, name, key string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, hspan{Name: name, ID: len(t.spans), Parent: parent,
		Driver: t.driver, Key: key, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// selfRow is one line of a self-time table.
type selfRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMs float64 `json:"self_ms"` // total over Count spans
	Share  float64 `json:"share"`   // of the table's total self time
}

// harnessSelfTimes gives each span name's self time: its duration less
// its direct children's. The harness is sequential per driver, so
// children never overlap.
func harnessSelfTimes(tracers []*tracer) []selfRow {
	self := map[string]*selfRow{}
	for _, t := range tracers {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			row := self[s.Name]
			if row == nil {
				row = &selfRow{Name: s.Name}
				self[s.Name] = row
			}
			row.Count++
			row.SelfMs += float64(s.End-s.Start-child[i]) / 1e6
		}
	}
	return finishRows(self)
}

func finishRows(self map[string]*selfRow) []selfRow {
	var total float64
	rows := make([]selfRow, 0, len(self))
	for _, r := range self {
		total += r.SelfMs
		rows = append(rows, *r)
	}
	for i := range rows {
		if total > 0 {
			rows[i].Share = rows[i].SelfMs / total
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// hops are the program's own span names along submit -> run, in causal
// order.
var hops = []string{"submit", "ad_stored", "negotiate", "notify", "claim", "verdict"}

// programSelfTimes reads the program's span ring back and gives each
// hop's self time over the complete traces still retained: a span's
// duration less the part its direct children cover while it is open
// (children of one span do not overlap: a hop makes one downstream call
// at a time).
func programSelfTimes(spans []obs.Span) (rows []selfRow, traces int) {
	byTrace := map[string][]obs.Span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	self := map[string]*selfRow{}
	for _, h := range hops {
		self[h] = &selfRow{Name: h}
	}
	for _, ss := range byTrace {
		seen := map[string]bool{}
		for _, s := range ss {
			seen[s.Name] = true
		}
		if !seen["submit"] || !seen["verdict"] {
			continue // the ring overwrote part of this trace
		}
		traces++
		byID := map[string]obs.Span{}
		for _, s := range ss {
			byID[s.ID] = s
		}
		// A parent is the span that caused this one, not always one that
		// was still open: only the part of a child inside its parent's
		// interval comes off the parent's self time.
		child := map[string]time.Duration{}
		for _, s := range ss {
			if p, ok := byID[s.Parent]; ok {
				from, to := s.Start, s.End
				if from.Before(p.Start) {
					from = p.Start
				}
				if to.After(p.End) {
					to = p.End
				}
				if to.After(from) {
					child[p.ID] += to.Sub(from)
				}
			}
		}
		for _, s := range ss {
			if row := self[s.Name]; row != nil {
				row.Count++
				row.SelfMs += float64(s.End.Sub(s.Start)-child[s.ID]) / 1e6
			}
		}
	}
	return finishRows(self), traces
}

// writeTrace stores the harness spans of one run.
func writeTrace(dir, workload string, tracers []*tracer) error {
	var all []hspan
	for _, t := range tracers {
		all = append(all, t.spans...)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
