// Package obs mimics the real hook types to seed guard violations for
// the obsguard analyzer.
package obs

type Counter struct{ v int64 }

// Inc delegates to a guarded method: accepted.
func (c *Counter) Inc() { c.Add(1) }

// Add guards in the first statement: accepted.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v += n
}

// Value dereferences an unguarded receiver.
func (c *Counter) Value() int64 { // want "\\(\\*Counter\\)\\.Value is not nil-receiver-safe"
	return c.v
}

type Gauge struct{ v int64 }

// Set guards too late: the receiver is already dereferenced.
func (g *Gauge) Set(n int64) { // want "\\(\\*Gauge\\)\\.Set is not nil-receiver-safe"
	g.v = n
	if g == nil {
		return
	}
}

// Twice only ever uses the receiver as a method-call receiver, so the
// guards in the callees cover it. Accepted.
func (g *Gauge) Twice(n int64) {
	g.Set(2 * n)
}

// reset is unexported: only the exported surface is contractual.
func (g *Gauge) reset() { g.v = 0 }

type Registry struct{ counters map[string]*Counter }

// Counter guards in the second statement (after declaring the zero
// result): accepted.
func (r *Registry) Counter(name string) *Counter {
	var zero *Counter
	if r == nil {
		return zero
	}
	return r.counters[name]
}

// value receivers cannot be nil, so they are exempt.
type snapshot struct{ n int64 }

func (s snapshot) N() int64 { return s.n }

type Span struct{ Name string }

type Spans struct{ buf []Span }

// Record guards first: accepted.
func (s *Spans) Record(sp Span) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, sp)
}

// Emit delegates to the guarded Record: accepted.
func (s *Spans) Emit(name string) { s.Record(Span{Name: name}) }

// Len reads an unguarded receiver.
func (s *Spans) Len() int { // want "\\(\\*Spans\\)\\.Len is not nil-receiver-safe"
	return len(s.buf)
}
