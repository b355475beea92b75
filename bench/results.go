package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// declaration is BENCHMARK.json, the contract this program is checked
// against: it is read from the working directory, the root of the
// checkout.
type declaration struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []declared              `json:"end_to_end"`
	PerLayer   []declared              `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclaration() (*declaration, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the root of the repository: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// names lists the declared metrics in order, then any measured metric
// that is not declared, so a drift between the two shows in the output.
func (d *declaration) names(list []declared, measured map[string]Metric) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range list {
		out = append(out, m.Name)
		seen[m.Name] = true
	}
	var extra []string
	for name := range measured {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

func resultPath(outDir, workload string, traced bool) string {
	kind := "run"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, kind+"-"+workload+".json")
}

// results is out/results.json.
type results struct {
	// Claim is the gain this benchmark run supports; the change that
	// defines the benchmark claims none.
	Claim *string   `json:"claim"`
	Env   env       `json:"env"`
	Runs  []runInfo `json:"runs"`
	// TraceOverhead is traced over untraced throughput per workload.
	TraceOverhead map[string]map[string]float64 `json:"trace_overhead"`
}

type env struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	WALFS      string `json:"wal_fs"`
}

type runInfo struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

// runAll is the whole benchmark: every workload runs untraced `runs`
// times on consecutive seeds, then once traced (which also runs the
// ladder), each in a child process of its own so that peak RSS and GC
// state start clean.
func runAll(decl *declaration, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	all := results{
		Env: env{Commit: commit, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), Seed: o.seed, Seconds: o.seconds, WALFS: fsTypeOf(o.outDir)},
		TraceOverhead: map[string]map[string]float64{},
	}
	child := func(sp spec, s int64, traced bool) error {
		args := []string{"--workload", sp.name, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(o.seconds), "--trace", "0"}
		if traced {
			args[len(args)-1] = "1"
		}
		if o.tiny {
			args = append(args, "-tiny")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		data, err := os.ReadFile(resultPath(o.outDir, sp.name, traced))
		if err != nil {
			return err
		}
		info := runInfo{Workload: sp.name, Seed: s, Traced: traced}
		if err := json.Unmarshal(data, &info.result); err != nil {
			return err
		}
		all.Runs = append(all.Runs, info)
		return nil
	}
	for _, sp := range specs {
		for i := 0; i < o.runs; i++ {
			if err := child(sp, o.seed+int64(i), false); err != nil {
				return err
			}
		}
	}
	for _, sp := range specs {
		if err := child(sp, o.seed, true); err != nil {
			return err
		}
		traced := all.Runs[len(all.Runs)-1].Metrics
		over := map[string]float64{}
		for _, name := range []string{"jobs_per_s", "ads_per_s"} {
			if base := all.median(sp.name, name); base > 0 {
				over[name] = traced["trace."+name].Value / base
			}
		}
		all.TraceOverhead[sp.name] = over
		fmt.Printf("%s trace_overhead (traced/untraced): jobs_per_s %.3f, ads_per_s %.3f\n",
			sp.name, over["jobs_per_s"], over["ads_per_s"])
	}
	path := filepath.Join(o.outDir, "results.json")
	if err := writeJSON(path, all); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// values lists one end-to-end metric over a workload's untraced runs.
func (r *results) values(workload, metric string) []float64 {
	var xs []float64
	for _, run := range r.Runs {
		if m, ok := run.Metrics[metric]; ok && run.Workload == workload && !run.Traced {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func (r *results) median(workload, metric string) float64 {
	xs := r.values(workload, metric)
	if len(xs) == 0 {
		return 0
	}
	return quartiles(xs)[1]
}

// quartiles are Python's statistics.quantiles(xs, n=4), which is how
// the spread of this benchmark's runs is judged. One value has no
// spread.
func quartiles(xs []float64) [3]float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	if len(xs) == 1 {
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	var q [3]float64
	m := len(xs) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, their ratio, the bound, and a verdict.
func compareFiles(pathA, pathB string) error {
	decl, err := readDeclaration()
	if err != nil {
		return err
	}
	var a, b results
	for path, into := range map[string]*results{pathA: &a, pathB: &b} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Printf("a: %s (commit %s, seed %d, %d s)\nb: %s (commit %s, seed %d, %d s)\n",
		pathA, a.Env.Commit, a.Env.Seed, a.Env.Seconds, pathB, b.Env.Commit, b.Env.Seed, b.Env.Seconds)
	fmt.Printf("%-18s %-22s %12s %12s %14s %6s %7s  %s\n",
		"workload", "metric", "a", "b", "b/a", "bound", "spread", "verdict")
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			xa, xb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-18s %-22s missing from one side\n", w.Name, m.Name)
				continue
			}
			qa, qb := quartiles(xa), quartiles(xb)
			spread := max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
			ratio := qb[1] / qa[1]
			worse := ratio - 1 // how much b is worse than a, as a share of a
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "same"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-18s %-22s %12.4f %12.4f %14s %6.2f %7.3f  %s\n", w.Name, m.Name, qa[1], qb[1],
				fmt.Sprintf("%.3f of a", ratio), m.Bound, spread, verdict)
		}
	}
	return nil
}
