package main

import (
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload, untraced and traced (which includes
// the ladder), on tiny pools for one second each. There are no timing
// assertions: it fails when a run fails, when a correctness check
// fails, or when the metrics and workloads a run emits differ from
// those BENCHMARK.json declares, in either direction (runOne compares
// the metrics), so the benchmark cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	// BENCHMARK.json is read from the working directory, the root of the
	// repository.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	decl, err := readDeclaration()
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	for _, w := range decl.Workloads {
		declared[w.Name] = true
		if _, ok := findSpec(w.Name); !ok {
			t.Errorf("BENCHMARK.json declares workload %s, which the benchmark does not have", w.Name)
		}
	}
	for _, sp := range specs {
		if !declared[sp.name] {
			t.Errorf("workload %s is not declared in BENCHMARK.json", sp.name)
		}
	}

	out := t.TempDir()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			o := options{workload: sp.name, seed: 1, seconds: 1, traced: traced, tiny: true, outDir: out}
			if err := runOne(decl, o); err != nil {
				t.Errorf("%s traced=%v: %v", sp.name, traced, err)
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4),
// which the benchmark's acceptance uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}
