package obs

import "sync"

// Obs bundles the sinks a component needs. A nil *Obs (and the nil
// Registry and rings inside a zero Obs) disables instrumentation
// without any call-site branching.
//
// Both rings hold Spans, keyed by the job's trace. Sp is the span ring:
// the timed hops of a request (submit, ad_stored, negotiate, notify,
// claim, verdict). Ev is the log ring: zero-length entries (Emit) and
// the wakes of the negotiation loop. They are kept apart because the
// pool benchmark reads the span ring's hops and its Dropped count; a
// log entry entering that ring would evict hops and inflate the count.
type Obs struct {
	Reg *Registry
	Ev  *Spans
	Sp  *Spans

	// handlers holds dynamic debug-endpoint extensions registered via
	// Handle; the HTTP handler's fallback route consults it, so
	// components can expose queries (/why, /daemons) without obs
	// importing them.
	hmu      sync.Mutex
	handlers map[string]func(map[string][]string) (any, error)
}

// New returns an Obs with a fresh registry and a default-capacity log
// ring and span ring.
func New() *Obs {
	return &Obs{Reg: NewRegistry(), Ev: NewSpans(0), Sp: NewSpans(0)}
}

// Registry returns the metrics registry; nil-safe.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Events returns the log ring; nil-safe.
func (o *Obs) Events() *Spans {
	if o == nil {
		return nil
	}
	return o.Ev
}

// Spans returns the span ring; nil-safe.
func (o *Obs) Spans() *Spans {
	if o == nil {
		return nil
	}
	return o.Sp
}

// Handle registers a debug-endpoint extension at path (e.g. "/why"):
// fn receives the parsed query parameters and its result is served as
// JSON (or its error as a 404). Safe to call before or after
// ServeDebug; nil-safe, so uninstrumented components can register
// unconditionally.
func (o *Obs) Handle(path string, fn func(query map[string][]string) (any, error)) {
	if o == nil {
		return
	}
	o.hmu.Lock()
	if o.handlers == nil {
		o.handlers = make(map[string]func(map[string][]string) (any, error))
	}
	o.handlers[path] = fn
	o.hmu.Unlock()
}

// handler returns the extension registered at path, if any; nil-safe.
func (o *Obs) handler(path string) func(map[string][]string) (any, error) {
	if o == nil {
		return nil
	}
	o.hmu.Lock()
	defer o.hmu.Unlock()
	return o.handlers[path]
}
