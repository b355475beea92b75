// Package obs is the pool-wide observability layer: a dependency-free
// metrics registry (atomic counters, gauges, fixed-bucket histograms),
// two bounded rings of spans keyed by the job's trace ID (timed hops,
// and zero-length log entries), which stitch a job's story together
// across daemons, and an optional debug HTTP endpoint exposing them as
// JSON alongside net/http/pprof.
//
// The paper's matchmaker is a periodic, opaque service — operators can
// only infer behavior from queue state (§4). This package makes the
// pool observable without changing its semantics: every hook is
// nil-safe, so an uninstrumented component pays one nil check per
// metric update and nothing else. Components receive an *Obs (or just
// a *Registry) at construction; a nil Obs, nil Registry, nil Counter
// and nil Spans all no-op.
package obs

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are
// nil-safe: an uninstrumented component holds nil counters and every
// update is a no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (live handler goroutines,
// queue depths). Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bucket i holds
// observations v with v <= Bounds[i] (and v > Bounds[i-1]); one
// overflow bucket past the last bound catches the rest. Observe is
// lock-free; Sum is maintained with a CAS loop over float bits.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits
}

// DurationBuckets is the default bucket set for latency histograms, in
// seconds: half a millisecond through ten seconds, roughly
// logarithmic. Chosen to straddle both test pools (millisecond
// round-trips) and the deployed system's five-minute cycles.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets is the default bucket set for size histograms (requests
// per cycle, offers scanned per request).
var CountBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v; equality lands in the
	// bucket (le semantics), misses land in the overflow bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramSnapshot is the JSON form of a histogram: per-bucket counts
// (not cumulative) with their upper bounds; the final bucket (no
// bound) is the overflow. P50/P95/P99 are quantiles estimated from
// the bucket counts — exact only at bucket boundaries, linearly
// interpolated within a bucket, and clamped to the last finite bound
// when the quantile falls in the overflow bucket.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	P50     float64   `json:"p50"`
	P95     float64   `json:"p95"`
	P99     float64   `json:"p99"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-th quantile (0 < q < 1) from the bucket
// counts: it finds the bucket holding the q*Count-th observation and
// interpolates linearly between the bucket's bounds. Observations in
// the overflow bucket are indistinguishable beyond the last bound, so
// quantiles landing there report the last bound (a floor, not an
// estimate). Returns 0 on an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum := float64(0)
	for i, c := range s.Buckets {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: no upper bound to interpolate toward.
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := float64(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		return lo + (s.Bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Registry names and owns metrics. Metric lookup/creation takes a
// mutex; updates on the returned metric are lock-free. All methods are
// nil-safe, returning nil metrics whose updates no-op, so call sites
// never branch on "is observability on".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge computed at snapshot time — the shape
// for values another component already tracks (fault-injector stats,
// runtime.NumGoroutine).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use (later calls reuse the
// original bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DurationBuckets
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is the JSON form of a whole registry, served at /metrics.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric's current value. Safe on a nil
// registry (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	// Values are read outside the registry lock: a gauge func may call
	// back into arbitrary code.
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = float64(v.Value())
	}
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// Digest hashes the current snapshot into a short stable hex string —
// the MetricsDigest a daemon publishes in its self-ad. Two scrapes of
// an idle daemon digest identically; any metric movement changes the
// digest, so a monitor can detect activity (or a wedged daemon whose
// digest never changes) without shipping the whole snapshot through
// the collector. Nil-safe.
func (r *Registry) Digest() string {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k := range s.Counters {
		names = append(names, "c:"+k)
	}
	for k := range s.Gauges {
		names = append(names, "g:"+k)
	}
	for k := range s.Histograms {
		names = append(names, "h:"+k)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprint(h, n, "=")
		switch n[0] {
		case 'c':
			fmt.Fprint(h, s.Counters[n[2:]])
		case 'g':
			fmt.Fprint(h, s.Gauges[n[2:]])
		case 'h':
			hs := s.Histograms[n[2:]]
			fmt.Fprint(h, hs.Count, "/", hs.Sum)
		}
		fmt.Fprint(h, ";")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
