package obs

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter and one gauge from many
// goroutines; run under -race this is the registry's thread-safety
// proof.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Lookup-then-update on every iteration exercises the
				// registry's creation lock, not just the atomic.
				r.Counter("hits").Inc()
				r.Gauge("depth").Inc()
				r.Gauge("depth").Dec()
				r.Histogram("lat", DurationBuckets).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("depth").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := r.Histogram("lat", nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// nilSafeTypes are the hook types components hold as possibly-nil
// fields. DebugServer, the one other exported type with
// pointer-receiver methods, only ever exists as a live endpoint.
var nilSafeTypes = []any{
	(*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil), (*Registry)(nil),
	(*Spans)(nil), (*SpanRec)(nil), (*Obs)(nil),
}

// TestNilSafety: every exported method of every hook type no-ops on a
// nil receiver — the contract uninstrumented components rely on. Each
// method is called with zero-value arguments and must not panic.
func TestNilSafety(t *testing.T) {
	for _, v := range nilSafeTypes {
		recv := reflect.ValueOf(v)
		for i := 0; i < recv.NumMethod(); i++ {
			m := recv.Type().Method(i)
			args := make([]reflect.Value, m.Type.NumIn()-1)
			for j := range args {
				args[j] = reflect.Zero(m.Type.In(j + 1))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("(%s).%s panics on a nil receiver: %v", recv.Type(), m.Name, r)
					}
				}()
				for _, out := range recv.Method(i).Call(args) {
					if ds, ok := out.Interface().(*DebugServer); ok && ds != nil {
						ds.Close() // ServeDebug("") listens whatever the receiver
					}
				}
			}()
		}
	}
	if t.Failed() {
		return // the calls below would panic again
	}
	var r *Registry
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	var o *Obs
	o.Events().Emit("", "src", "name", nil)
	if o.Events().Len() != 0 {
		t.Error("nil events not empty")
	}
	var c *Counter
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram has observations")
	}
}

// TestNilSafetyTypesInSync keeps nilSafeTypes equal to the package's
// exported types that have pointer-receiver methods, less DebugServer:
// a new hook type is nil-safety tested from the day it is declared.
func TestNilSafetyTypesInSync(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, f := range pkgs["obs"].Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.IsExported() && id.Name != "DebugServer" {
					declared[id.Name] = true
				}
			}
		}
	}
	listed := map[string]bool{}
	for _, v := range nilSafeTypes {
		listed[reflect.TypeOf(v).Elem().Name()] = true
	}
	for name := range declared {
		if !listed[name] {
			t.Errorf("%s has pointer-receiver methods but is not in nilSafeTypes", name)
		}
	}
	for name := range listed {
		if !declared[name] {
			t.Errorf("nilSafeTypes lists %s, which has no pointer-receiver method", name)
		}
	}
}

// TestHistogramBucketEdges pins the boundary semantics: a value equal
// to a bucket's upper bound lands in that bucket, one past it lands in
// the next, and values beyond the last bound land in the overflow
// bucket.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{
		0.5,  // bucket 0 (<= 1)
		1,    // bucket 0: boundary is inclusive
		1.01, // bucket 1 (<= 2)
		2,    // bucket 1: boundary is inclusive
		5,    // bucket 2
		5.01, // overflow
		99,   // overflow
	} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []int64{2, 2, 1, 2}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %d entries", s.Buckets, len(want))
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], want[i], s.Buckets)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if got, want := s.Sum, 0.5+1+1.01+2+5+5.01+99; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
}

// TestHistogramReusesBounds: a second registration under the same name
// keeps the original bounds.
func TestHistogramReusesBounds(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", []float64{1, 2})
	h2 := r.Histogram("h", []float64{100})
	if h1 != h2 {
		t.Fatal("same name produced distinct histograms")
	}
	if got := len(h1.snapshot().Bounds); got != 2 {
		t.Errorf("bounds len = %d, want 2", got)
	}
}

// TestSnapshotJSON: the snapshot must round-trip through JSON — it is
// the /metrics wire format the CLI decodes.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b").Set(-2)
	r.GaugeFunc("c", func() float64 { return 7.5 })
	r.Histogram("d_seconds", []float64{1}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a_total"] != 3 {
		t.Errorf("counter lost: %+v", back.Counters)
	}
	if back.Gauges["b"] != -2 || back.Gauges["c"] != 7.5 {
		t.Errorf("gauges lost: %+v", back.Gauges)
	}
	if h := back.Histograms["d_seconds"]; h.Count != 1 || h.Sum != 0.5 {
		t.Errorf("histogram lost: %+v", h)
	}
}

// TestHistogramQuantiles: quantiles interpolate within buckets, land
// exactly on boundaries when the rank does, clamp to the last bound in
// the overflow bucket, and are zero on an empty histogram.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 40})
	// 10 observations in (0,10], 10 in (10,20]: p50 = 10 exactly (rank
	// 10 exhausts the first bucket), p75 interpolates halfway into the
	// second bucket.
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	s := h.snapshot()
	if got := s.Quantile(0.50); got != 10 {
		t.Errorf("p50 = %g, want 10", got)
	}
	if got := s.Quantile(0.75); got != 15 {
		t.Errorf("p75 = %g, want 15", got)
	}
	if s.P50 != s.Quantile(0.50) || s.P95 != s.Quantile(0.95) || s.P99 != s.Quantile(0.99) {
		t.Errorf("snapshot quantile fields disagree with Quantile(): %+v", s)
	}

	// All mass past the last bound: every quantile clamps to it.
	over := newHistogram([]float64{10, 20, 40})
	for i := 0; i < 4; i++ {
		over.Observe(1000)
	}
	if got := over.snapshot().Quantile(0.50); got != 40 {
		t.Errorf("overflow p50 = %g, want clamp to 40", got)
	}

	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

// TestRegistryDigest: the digest is stable while metrics are idle and
// moves when any metric moves — the self-ad's wedged-daemon detector.
func TestRegistryDigest(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	d1 := r.Digest()
	if d2 := r.Digest(); d2 != d1 {
		t.Fatalf("idle digest moved: %s -> %s", d1, d2)
	}
	r.Counter("x_total").Inc()
	if d3 := r.Digest(); d3 == d1 {
		t.Fatal("digest unchanged after counter increment")
	}
	var nilReg *Registry
	if nilReg.Digest() == "" {
		t.Fatal("nil registry digest is empty")
	}
}
