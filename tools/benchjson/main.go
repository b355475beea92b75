// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout, so benchmark baselines can be checked in
// and diffed mechanically (the Makefile's `bench` target pipes the
// matchmaker/classad hot paths through it into
// BENCH_matchmaker.json).
//
// Input lines it understands:
//
//	goos: linux
//	goarch: amd64
//	pkg: repro
//	cpu: ...
//	BenchmarkMatch-8    123456    9876 ns/op    120 B/op    3 allocs/op
//
// Everything else (PASS, ok, test log noise) is ignored, so the tool
// is safe to leave in any pipeline.
//
// A unit other than ns/op, B/op, allocs/op and MB/s is a counter the
// benchmark reported with b.ReportMetric (evals/wake, dials/op): a
// count of work done, recorded under "metrics".
//
// With -check <baseline.json> the tool becomes a regression gate: it
// compares the fresh run against the committed baseline and exits
// non-zero when any benchmark present in both slowed down by more
// than -tolerance (default 20% ns/op), or allocates more than 2% and
// at least one allocation more per op, or reports more than 2% more of
// any counter. Time is noisy on a shared host, so its bound is loose;
// an allocation or work count is not, so a lost allocation-free path
// or a dial per operation fails the gate however noisy the host. The
// Makefile's `bench-check` target wires this into CI-style
// verification.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// allocTolerance is the fractional rise in allocs/op, or in a
// reported counter, that -check allows.
const allocTolerance = 0.02

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp int64   `json:"bytes_per_op,omitempty"`
	AllocsOp   int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds the b.ReportMetric counters, by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the whole document: the environment header `go test`
// prints, how the benchmarks ran, then every benchmark in input order.
type Report struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS is what the benchmarks ran under: the -N suffix
	// `go test` appends to every name, or 1 where it appends none.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Count is the most samples of one benchmark (`go test -count`).
	Count      int         `json:"count,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	checkPath := flag.String("check", "", "baseline JSON to compare against; exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional ns/op slowdown before -check fails")
	flag.Parse()

	rep, err := parseRun(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	if *checkPath != "" {
		data, err := os.ReadFile(*checkPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *checkPath, err)
			os.Exit(1)
		}
		regressions, report := runCheck(base, rep, *tolerance)
		fmt.Fprint(os.Stdout, report)
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseRun reads `go test -bench` output and collects the report.
func parseRun(r io.Reader) (Report, error) {
	rep := Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	samples := map[string]int{}
	for _, b := range rep.Benchmarks {
		samples[b.Name]++
		rep.Count = max(rep.Count, samples[b.Name])
	}
	if len(rep.Benchmarks) > 0 {
		rep.GOMAXPROCS = procsSuffix(rep.Benchmarks[0].Name)
	}
	return rep, sc.Err()
}

// procsSuffix reads GOMAXPROCS off a benchmark name: `go test` names
// BenchmarkX-8 what ran under GOMAXPROCS 8, and plain BenchmarkX what
// ran under 1.
func procsSuffix(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 {
		return 1
	}
	return n
}

// runCheck compares a fresh run against a baseline. Benchmarks are
// matched by name (only names present in both runs are judged — new
// and retired benchmarks pass silently, so adding a benchmark never
// breaks the gate before its baseline is committed). When either run
// holds several samples of one name (`go test -count=N`), the minimum
// ns/op and the minimum allocs/op represent it — min-of-N is the
// standard noise floor, so a regression must reproduce across every
// sample to be flagged. A benchmark regresses when its ns/op rises by
// more than tolerance, or when its allocs/op rises by more than
// allocTolerance and by at least one allocation (so 0 -> 1 fails and
// 0 -> 0 passes). It returns the regression count and a
// human-readable report.
func runCheck(base, fresh Report, tolerance float64) (regressions int, report string) {
	baseline := minByName(base.Benchmarks)
	var sb strings.Builder
	compared := 0
	for _, b := range minSamples(fresh.Benchmarks) {
		old, ok := baseline[b.Name]
		if !ok || old.NsPerOp <= 0 {
			continue
		}
		compared++
		ratio := b.NsPerOp / old.NsPerOp
		worse := ratio > 1+tolerance || rose(float64(old.AllocsOp), float64(b.AllocsOp))
		var counters strings.Builder
		for _, unit := range sortedUnits(b.Metrics) {
			was, ok := old.Metrics[unit]
			if !ok {
				continue
			}
			fmt.Fprintf(&counters, "  %g -> %g %s", was, b.Metrics[unit], unit)
			worse = worse || rose(was, b.Metrics[unit])
		}
		verdict := "ok"
		if worse {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(&sb, "%-12s %-50s %12.0f -> %12.0f ns/op  (%+.1f%%)  %d -> %d allocs/op%s\n",
			verdict, b.Name, old.NsPerOp, b.NsPerOp, (ratio-1)*100, old.AllocsOp, b.AllocsOp, counters.String())
	}
	fmt.Fprintf(&sb, "benchjson: %d compared, %d regressed (tolerance %+.0f%% ns/op, %+.0f%% allocs/op and counters)\n",
		compared, regressions, tolerance*100, allocTolerance*100)
	return regressions, sb.String()
}

// rose reports a work count regression: more than allocTolerance above
// the baseline, and above it at all (so 0 -> 1 fails and 0 -> 0
// passes).
func rose(was, now float64) bool {
	return now > was && now > was*(1+allocTolerance)
}

func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for unit := range m {
		units = append(units, unit)
	}
	sort.Strings(units)
	return units
}

// minByName indexes benchmarks by name, keeping each measure's best
// sample: the fastest ns/op, the fewest allocs/op and the lowest of
// each counter.
func minByName(bs []Benchmark) map[string]Benchmark {
	m := make(map[string]Benchmark, len(bs))
	for _, b := range bs {
		if old, ok := m[b.Name]; ok {
			b.NsPerOp = min(b.NsPerOp, old.NsPerOp)
			b.AllocsOp = min(b.AllocsOp, old.AllocsOp)
			metrics := make(map[string]float64, len(b.Metrics))
			for unit, v := range b.Metrics {
				if was, ok := old.Metrics[unit]; ok {
					v = min(v, was)
				}
				metrics[unit] = v
			}
			b.Metrics = metrics
		}
		m[b.Name] = b
	}
	return m
}

// minSamples collapses repeated samples of one benchmark to their best
// (minByName), preserving first-appearance order.
func minSamples(bs []Benchmark) []Benchmark {
	m := minByName(bs)
	out := make([]Benchmark, 0, len(m))
	seen := make(map[string]bool, len(m))
	for _, b := range bs {
		if !seen[b.Name] {
			seen[b.Name] = true
			out = append(out, m[b.Name])
		}
	}
	return out
}

// parseBench decodes one result line: name, iteration count, then
// value/unit pairs (ns/op, B/op, allocs/op, and the counters).
func parseBench(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsOp = int64(v)
		case "MB/s":
			// a throughput, not a count of work
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[f[i+1]] = v
		}
	}
	if b.NsPerOp == 0 {
		return Benchmark{}, false
	}
	return b, true
}
