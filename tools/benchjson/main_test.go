package main

import (
	"strings"
	"testing"
)

func TestParseRun(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: repro
cpu: Imaginary CPU @ 1GHz
BenchmarkMatch-8    123456    9876 ns/op    120 B/op    3 allocs/op
BenchmarkNoAlloc    10        500.5 ns/op
PASS
ok  	repro	1.234s
some stray log line
`
	rep, err := parseRun(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.Pkg != "repro" {
		t.Errorf("header parsed wrong: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkMatch-8" || b.Iterations != 123456 ||
		b.NsPerOp != 9876 || b.BytesPerOp != 120 || b.AllocsOp != 3 {
		t.Errorf("benchmark 0 parsed wrong: %+v", b)
	}
	if rep.Benchmarks[1].NsPerOp != 500.5 {
		t.Errorf("benchmark 1 ns/op = %v, want 500.5", rep.Benchmarks[1].NsPerOp)
	}
	if rep.GOMAXPROCS != 8 || rep.Count != 1 {
		t.Errorf("gomaxprocs, count = %d, %d, want 8, 1", rep.GOMAXPROCS, rep.Count)
	}
}

// TestParseRunRecordsHowItRan: `go test -cpu 1 -count 2` drops the
// GOMAXPROCS suffix and prints each benchmark twice.
func TestParseRunRecordsHowItRan(t *testing.T) {
	input := `BenchmarkMatch    100    9876 ns/op    0 B/op    0 allocs/op
BenchmarkWake/offers=1000    10    500 ns/op
BenchmarkMatch    100    9000 ns/op    0 B/op    0 allocs/op
`
	rep, err := parseRun(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOMAXPROCS != 1 || rep.Count != 2 {
		t.Errorf("gomaxprocs, count = %d, %d, want 1, 2", rep.GOMAXPROCS, rep.Count)
	}
}

func TestRunCheck(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 1000},
		{Name: "BenchmarkRetired", NsPerOp: 1000},
		{Name: "BenchmarkAllocs", NsPerOp: 1000, AllocsOp: 100},
		{Name: "BenchmarkZero", NsPerOp: 1000},
	}}
	cases := []struct {
		name   string
		fresh  Report
		tol    float64
		wantRe int
	}{
		{"within tolerance", Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 1150}}}, 0.20, 0},
		{"at the boundary passes", Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 1200}}}, 0.20, 0},
		{"past the boundary fails", Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 1201}}}, 0.20, 1},
		{"speedup passes", Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 10}}}, 0.20, 0},
		{"new benchmark without baseline passes", Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkNew", NsPerOp: 1e9}}}, 0.20, 0},
		{"multiple regressions counted", Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 2000},
			{Name: "BenchmarkB", NsPerOp: 3000}}}, 0.20, 2},
		{"tighter tolerance", Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 1100}}}, 0.05, 1},
		{"min of repeated samples passes", Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 5000},
			{Name: "BenchmarkA", NsPerOp: 1100}}}, 0.20, 0},
		{"regression reproduced across samples fails", Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 5000},
			{Name: "BenchmarkA", NsPerOp: 4000}}}, 0.20, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, report := runCheck(base, tc.fresh, tc.tol)
			if got != tc.wantRe {
				t.Errorf("regressions = %d, want %d\n%s", got, tc.wantRe, report)
			}
			if tc.wantRe > 0 && !strings.Contains(report, "REGRESSION") {
				t.Errorf("report does not flag the regression:\n%s", report)
			}
		})
	}
}

// Counters reported with b.ReportMetric are recorded by unit; MB/s is
// a throughput and is not.
func TestParseRunRecordsCounters(t *testing.T) {
	input := `BenchmarkSteadyStateDeltas/incremental    100    123456 ns/op    512.5 evals/wake    2048 B/op    31 allocs/op
BenchmarkNotifyClaim    500    90000 ns/op    0 dials/op    3.50 MB/s
`
	rep, err := parseRun(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Benchmarks[0].Metrics; len(got) != 1 || got["evals/wake"] != 512.5 {
		t.Errorf("metrics = %v, want evals/wake 512.5", got)
	}
	if got := rep.Benchmarks[1].Metrics; len(got) != 1 || got["dials/op"] != 0 {
		t.Errorf("metrics = %v, want only dials/op 0", got)
	}
}

// A counter rise fails the gate by the allocs/op rule.
func TestRunCheckCounters(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkWake", NsPerOp: 1000, Metrics: map[string]float64{"evals/wake": 500}},
		{Name: "BenchmarkNotifyClaim", NsPerOp: 1000, Metrics: map[string]float64{"dials/op": 0}},
	}}
	bench := func(name, unit string, v ...float64) []Benchmark {
		var out []Benchmark
		for _, x := range v {
			out = append(out, Benchmark{Name: name, NsPerOp: 1000, Metrics: map[string]float64{unit: x}})
		}
		return out
	}
	cases := []struct {
		name   string
		fresh  []Benchmark
		wantRe int
	}{
		{"within 2%", bench("BenchmarkWake", "evals/wake", 510), 0},
		{"past 2%", bench("BenchmarkWake", "evals/wake", 511), 1},
		{"fewer passes", bench("BenchmarkWake", "evals/wake", 10), 0},
		{"zero stays zero", bench("BenchmarkNotifyClaim", "dials/op", 0), 0},
		{"zero to some fails", bench("BenchmarkNotifyClaim", "dials/op", 0.001), 1},
		{"min of samples", bench("BenchmarkNotifyClaim", "dials/op", 3, 0), 0},
		{"unit new to the baseline passes", bench("BenchmarkWake", "dials/op", 9), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, report := runCheck(base, Report{Benchmarks: tc.fresh}, 0.20)
			if got != tc.wantRe {
				t.Errorf("regressions = %d, want %d\n%s", got, tc.wantRe, report)
			}
		})
	}
}
