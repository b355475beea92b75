package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed hop of a request's journey across the pool. Spans
// sharing a Trace value belong to the same causal story: the trace ID
// is minted at submission, stamped into every envelope the request's
// processing sends (Envelope.Trace), and each daemon that does work on
// its behalf records a span naming itself as Src. Parent links a span
// to the remote span whose envelope carried the work here, so the
// retained spans of one trace reassemble into a tree spanning process
// boundaries — the dependency-free core of distributed tracing.
type Span struct {
	// Trace identifies the causal story this span belongs to.
	Trace string `json:"trace"`
	// ID identifies this span within its trace.
	ID string `json:"id"`
	// Parent is the ID of the span that caused this one ("" for a
	// root span).
	Parent string `json:"parent,omitempty"`
	// Src names the recording component: "manager", "matchmaker",
	// "collector", "ca", "ra", "negotiator".
	Src string `json:"src"`
	// Name names the operation: "submit", "notify", "claim", ...
	Name string `json:"name"`
	// Start and End bound the operation; End-Start is the hop latency.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Err is non-empty when the operation failed (a fenced MATCH, a
	// rejected claim); failed spans still belong to the tree.
	Err string `json:"err,omitempty"`
	// Fields carries span-specific key/value detail.
	Fields map[string]string `json:"fields,omitempty"`
}

// DefaultSpanCapacity is the size New gives each of its two rings.
const DefaultSpanCapacity = 4096

// Spans is a bounded ring of completed spans: recording is O(1), old
// spans are overwritten once the ring is full. All methods are
// nil-safe.
type Spans struct {
	mu   sync.Mutex
	buf  []Span
	next int64 // total recorded; buf[next%len] is the next slot
}

// NewSpans returns a ring holding the most recent capacity spans
// (<= 0 selects DefaultSpanCapacity).
func NewSpans(capacity int) *Spans {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Spans{buf: make([]Span, capacity)}
}

// Record appends one completed span.
func (s *Spans) Record(span Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.buf[s.next%int64(len(s.buf))] = span
	s.next++
	s.mu.Unlock()
}

// Emit records one log entry under trace: a zero-length span with no
// ID, so it parents nothing. An empty trace is recorded too, as an
// uncorrelated entry (a collector log line). fields may be nil.
func (s *Spans) Emit(trace, src, name string, fields map[string]string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.Record(Span{Trace: trace, Src: src, Name: name, Start: now, End: now, Fields: fields})
}

// Len reports how many spans the ring currently holds.
func (s *Spans) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next < int64(len(s.buf)) {
		return int(s.next)
	}
	return len(s.buf)
}

// Total reports how many spans were ever recorded.
func (s *Spans) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// Dropped reports how many spans the ring has overwritten.
func (s *Spans) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.next - int64(len(s.buf)); d > 0 {
		return d
	}
	return 0
}

// Select returns retained spans in recording order, filtered by trace
// when non-empty, keeping only the most recent limit spans when
// limit > 0. Always returns a non-nil slice (it is served as JSON).
func (s *Spans) Select(trace string, limit int) []Span {
	out := []Span{}
	if s == nil {
		return out
	}
	s.mu.Lock()
	n := int64(len(s.buf))
	lo := s.next - n
	if lo < 0 {
		lo = 0
	}
	for seq := lo; seq < s.next; seq++ {
		sp := s.buf[seq%n]
		if trace != "" && sp.Trace != trace {
			continue
		}
		out = append(out, sp)
	}
	s.mu.Unlock()
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Start opens a live span under trace with the given parent span ID
// and returns a recorder for it; call End (or Fail then End) when the
// operation completes to commit it to the ring. A nil *Spans or an
// empty trace yields a nil recorder, whose methods are all no-ops —
// call sites never branch on instrumentation or on whether the
// request is traced.
func (s *Spans) Start(trace, parent, src, name string) *SpanRec {
	if s == nil || trace == "" {
		return nil
	}
	return &SpanRec{
		ring: s,
		span: Span{
			Trace: trace, ID: NewSpanID(), Parent: parent,
			Src: src, Name: name, Start: time.Now(),
		},
	}
}

// SpanRec is an open span being timed. All methods are nil-safe.
type SpanRec struct {
	ring *Spans
	mu   sync.Mutex
	span Span
	done atomic.Bool
}

// ID returns the span's ID, to be propagated as the Parent of any
// downstream span ("" on a nil recorder — untraced requests propagate
// empty trace context, which downstream Start treats as untraced).
func (r *SpanRec) ID() string {
	if r == nil {
		return ""
	}
	return r.span.ID
}

// Set attaches one key/value detail to the span.
func (r *SpanRec) Set(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.span.Fields == nil {
		r.span.Fields = make(map[string]string)
	}
	r.span.Fields[key] = value
	r.mu.Unlock()
}

// Fail marks the span as errored.
func (r *SpanRec) Fail(err string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.span.Err = err
	r.mu.Unlock()
}

// End stamps the end time and commits the span to the ring. Only the
// first End records; later calls are no-ops.
func (r *SpanRec) End() {
	if r == nil || !r.done.CompareAndSwap(false, true) {
		return
	}
	r.mu.Lock()
	r.span.End = time.Now()
	sp := r.span
	r.mu.Unlock()
	r.ring.Record(sp)
}

// NewTraceID mints a trace identifier, e.g. "t-9f1b03d7c4a21e56":
// 64 random bits is enough to never collide within one ring's
// retention window.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion should not break submission; fall back to
		// a timestamp-derived ID.
		return fmt.Sprintf("t-%x", time.Now().UnixNano())
	}
	return "t-" + hex.EncodeToString(b[:])
}

// NewSpanID mints a span identifier (unique within one trace).
func NewSpanID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("s-%x", time.Now().UnixNano())
	}
	return "s-" + hex.EncodeToString(b[:])
}
