package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestEventsWraparound fills a small log ring past capacity and checks
// the survivors are exactly the most recent entries, in order.
func TestEventsWraparound(t *testing.T) {
	e := NewSpans(8)
	for i := 0; i < 20; i++ {
		e.Emit("", "test", fmt.Sprintf("t%d", i), nil)
	}
	if e.Len() != 8 {
		t.Errorf("len = %d, want 8", e.Len())
	}
	if e.Total() != 20 {
		t.Errorf("total = %d, want 20", e.Total())
	}
	got := e.Select("", 0)
	if len(got) != 8 {
		t.Fatalf("select len = %d, want 8", len(got))
	}
	for i, ev := range got {
		if want := fmt.Sprintf("t%d", 12+i); ev.Name != want {
			t.Errorf("entry %d = %s, want %s", i, ev.Name, want)
		}
	}
}

// TestEventsSelect filters log entries by trace and limit.
func TestEventsSelect(t *testing.T) {
	e := NewSpans(64)
	for i := 0; i < 10; i++ {
		trace := "t-1"
		if i%2 == 0 {
			trace = "t-2"
		}
		e.Emit(trace, "mgr", "tick", map[string]string{"i": fmt.Sprint(i)})
	}
	e.Emit("t-1", "mgr", "done", nil)

	if got := e.Select("t-1", 0); len(got) != 6 {
		t.Errorf("trace filter: %d entries, want 6", len(got))
	}
	got := e.Select("t-2", 3)
	if len(got) != 3 {
		t.Fatalf("limit: %d entries, want 3", len(got))
	}
	// Limit keeps the most recent matches.
	if got[2].Fields["i"] != "8" {
		t.Errorf("limit kept %v, want the latest ticks", got)
	}
}

// TestEventsSelectTraceWraparound pins the trace filter across a ring
// wraparound: two traces interleave past capacity, and selecting one
// returns exactly its surviving entries, in order, even though the
// ring has overwritten the early ones.
func TestEventsSelectTraceWraparound(t *testing.T) {
	e := NewSpans(8)
	for i := 0; i < 20; i++ {
		trace := "t-a"
		if i%2 == 1 {
			trace = "t-b"
		}
		e.Emit(trace, "ca", fmt.Sprintf("t%d", i), nil)
	}
	if d := e.Dropped(); d != 12 {
		t.Errorf("dropped = %d, want 12", d)
	}
	got := e.Select("t-a", 0)
	if len(got) != 4 {
		t.Fatalf("trace filter after wraparound: %d entries, want 4 (got %v)", len(got), got)
	}
	// The ring holds entries 12..19; the even ones are "t-a".
	for i, ev := range got {
		if want := fmt.Sprintf("t%d", 12+2*i); ev.Name != want || ev.Trace != "t-a" {
			t.Errorf("entry %d = %s under %s, want %s under t-a", i, ev.Name, ev.Trace, want)
		}
	}
	if got := e.Select("t-a", 2); len(got) != 2 || got[1].Name != "t18" {
		t.Errorf("trace filter + limit kept %v, want the 2 latest t-a entries", got)
	}
}

// TestEventsConcurrent records, emits and selects from many
// goroutines; under -race this is the ring's thread-safety proof.
func TestEventsConcurrent(t *testing.T) {
	e := NewSpans(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			trace := fmt.Sprintf("t-%d", w)
			for i := 0; i < 100; i++ {
				e.Record(Span{Trace: trace, ID: NewSpanID(), Src: "w", Name: "hop"})
				e.Emit(trace, "w", "log", nil)
				e.Select(trace, 0)
			}
		}(w)
	}
	wg.Wait()
	if e.Total() != 1600 {
		t.Errorf("total = %d, want 1600", e.Total())
	}
}

// TestEmitIsZeroLengthSpan: a log entry is a span with no ID whose
// start and end coincide, and an uncorrelated entry is kept.
func TestEmitIsZeroLengthSpan(t *testing.T) {
	e := NewSpans(4)
	e.Emit("t-x", "matchmaker", "match", map[string]string{"offer": "m1"})
	e.Emit("", "collector", "log", nil)
	got := e.Select("", 0)
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2", len(got))
	}
	for _, sp := range got {
		if sp.ID != "" || sp.Parent != "" || !sp.End.Equal(sp.Start) || sp.Start.IsZero() {
			t.Errorf("entry %+v is not a zero-length span without an ID", sp)
		}
	}
	if got[0].Trace != "t-x" || got[0].Src != "matchmaker" || got[0].Name != "match" || got[0].Fields["offer"] != "m1" {
		t.Errorf("correlated entry = %+v", got[0])
	}
	if got[1].Trace != "" || got[1].Name != "log" {
		t.Errorf("uncorrelated entry = %+v", got[1])
	}
}

// TestLogRingApartFromSpanRing: log entries never enter the span ring,
// so they cannot evict hops or count as its drops.
func TestLogRingApartFromSpanRing(t *testing.T) {
	o := &Obs{Ev: NewSpans(2), Sp: NewSpans(4)}
	o.Spans().Record(Span{Trace: "t-1", ID: "s-1", Name: "submit"})
	for i := 0; i < 5; i++ {
		o.Events().Emit("t-1", "ca", "log", nil)
	}
	if got := o.Spans().Total(); got != 1 {
		t.Errorf("span ring total = %d, want 1", got)
	}
	if got := o.Spans().Dropped(); got != 0 {
		t.Errorf("span ring dropped = %d, want 0", got)
	}
	if got := o.Events().Total(); got != 5 {
		t.Errorf("log ring total = %d, want 5", got)
	}
	if got := o.Events().Dropped(); got != 3 {
		t.Errorf("log ring dropped = %d, want 3", got)
	}
}
