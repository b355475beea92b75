// Command bench is the pool benchmark: one seeded load generator that
// stands up the real pool manager, collector server, resource daemons
// and customer daemons on loopback TCP inside this process, drives a
// workload in a closed loop, checks the outputs and prints every metric
// by name and unit. README.md defines the workloads and metrics.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; the last line is the result
//	bench [--runs R]            every workload R times, the traced pass and the ladder -> out/results.json
//	bench -layers               the per-layer ladder alone
//	bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	runs     int
	layers   bool
	compare  bool
	tiny     bool
	outDir   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "measured window per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics")
	flag.IntVar(&o.runs, "runs", 5, "full mode: untraced runs per workload, on consecutive seeds")
	flag.BoolVar(&o.layers, "layers", false, "run the per-layer ladder alone")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: -compare a.json b.json")
	flag.BoolVar(&o.tiny, "tiny", false, "shrink every pool: the smoke test's size, not a measurement")
	flag.Parse()
	o.traced = trace == 1
	if o.outDir = os.Getenv("BENCH_DIR"); o.outDir == "" {
		o.outDir = "bench/out"
	}
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(args[0], args[1])
	}
	decl, err := readDeclaration()
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = decl.RunSeconds
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	switch {
	case o.layers:
		m, err := ladder(o.seed, o.tiny, o.outDir)
		if err != nil {
			return err
		}
		var names []string
		for _, name := range decl.names(decl.PerLayer, m) {
			if _, ok := m[name]; ok {
				names = append(names, name)
			}
		}
		var b strings.Builder
		(&result{Metrics: m}).print(&b, names)
		fmt.Print(b.String())
		return nil
	case o.workload != "":
		return runOne(decl, o)
	default:
		return runAll(decl, o)
	}
}

// runOne is one run of one workload in this process. Its last line of
// output is the result object the driver reads.
func runOne(decl *declaration, o options) error {
	sp, ok := findSpec(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.tiny {
		sp = sp.tiny()
	}
	res, err := runWorkload(sp, o.seed, time.Duration(o.seconds)*time.Second, o.outDir, o.traced)
	if err != nil {
		return err
	}
	declared := decl.EndToEnd
	if o.traced {
		declared = decl.PerLayer
		lm, err := ladder(o.seed, o.tiny, o.outDir)
		if err != nil {
			return err
		}
		for k, v := range lm {
			res.Metrics[k] = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d seconds=%d traced=%v\n", sp.name, o.seed, o.seconds, o.traced)
	res.print(&b, decl.names(declared, res.Metrics))
	printRows(&b, "harness self time", res.Harness)
	printRows(&b, "program self time, per retained trace", res.Program)
	for _, w := range res.Wrong {
		fmt.Fprintf(&b, "  WRONG: %s\n", w)
	}
	fmt.Print(b.String())

	// The result line carries exactly the declared metrics.
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{len(res.Wrong) == 0, res.Attempted, res.Failed, map[string]Metric{}}
	for _, m := range declared {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		line.Metrics[m.Name] = Metric{Value: got.Value, Unit: got.Unit}
	}
	for name := range res.Metrics {
		if _, ok := line.Metrics[name]; !ok {
			return fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	// The full record, with sample counts and tables, for runAll.
	if err := writeJSON(resultPath(o.outDir, sp.name, o.traced), res); err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return fmt.Errorf("%s: %d correctness checks failed", sp.name, len(res.Wrong))
	}
	return nil
}

func printRows(b *strings.Builder, title string, rows []selfRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(b, "  %s:\n", title)
	for _, r := range rows {
		fmt.Fprintf(b, "    %-16s n=%-7d self=%10.2f ms  share=%.3f\n", r.Name, r.Count, r.SelfMs, r.Share)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
