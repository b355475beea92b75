package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/classad"
	"repro/internal/collector"
)

const lintDir = "../../testdata/lint"

// TestGolden runs cadlint over every testdata/lint/*.ad file and
// compares output and exit status against the .want file next to it.
// The first line of a .want file is "exit N"; the rest is the exact
// stdout with the directory prefix stripped.
func TestGolden(t *testing.T) {
	ads, err := filepath.Glob(filepath.Join(lintDir, "*.ad"))
	if err != nil || len(ads) == 0 {
		t.Fatalf("no golden ads in %s: %v", lintDir, err)
	}
	sort.Strings(ads)
	for _, adPath := range ads {
		name := strings.TrimSuffix(filepath.Base(adPath), ".ad")
		t.Run(name, func(t *testing.T) {
			wantRaw, err := os.ReadFile(filepath.Join(lintDir, name+".want"))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			lines := strings.SplitN(strings.TrimRight(string(wantRaw), "\n"), "\n", 2)
			wantExit, err := strconv.Atoi(strings.TrimPrefix(lines[0], "exit "))
			if err != nil {
				t.Fatalf("bad exit line %q: %v", lines[0], err)
			}
			wantOut := ""
			if len(lines) > 1 {
				wantOut = lines[1] + "\n"
			}

			var stdout, stderr bytes.Buffer
			code := run([]string{adPath}, &stdout, &stderr)
			got := strings.ReplaceAll(stdout.String(), lintDir+string(filepath.Separator), "")
			if code != wantExit {
				t.Errorf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, wantExit, stdout.String(), stderr.String())
			}
			if got != wantOut {
				t.Errorf("output mismatch\ngot:\n%s\nwant:\n%s", got, wantOut)
			}
		})
	}
}

// TestUnsatNamesConjunct pins the acceptance criterion: linting
// unsat.ad exits non-zero and the report names the unsatisfiable
// conjuncts.
func TestUnsatNamesConjunct(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{filepath.Join(lintDir, "unsat.ad")}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit = 0, want non-zero; stdout:\n%s", stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"CAD201", "other.Memory > 64", "other.Memory < 32"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestShippedAdsClean pins the other acceptance criterion: every
// shipped ad outside the lint fixtures exits zero.
func TestShippedAdsClean(t *testing.T) {
	for _, dir := range []string{"../../testdata", "../../examples/ads"} {
		ads, _ := filepath.Glob(filepath.Join(dir, "*.ad"))
		for _, adPath := range ads {
			var stdout, stderr bytes.Buffer
			if code := run([]string{adPath}, &stdout, &stderr); code != 0 {
				t.Errorf("cadlint %s: exit %d\n%s%s", adPath, code, stdout.String(), stderr.String())
			}
		}
	}
}

// TestStrictPromotesWarnings checks that -strict fails on a
// warnings-only ad.
func TestStrictPromotesWarnings(t *testing.T) {
	path := filepath.Join(lintDir, "typo.ad")
	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("without -strict: exit %d, want 0\n%s", code, stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-strict", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("with -strict: exit %d, want 1\n%s", code, stdout.String())
	}
}

// TestParseErrorIsClickable checks that a syntax error prints as
// file:line:col and exits with the parse-failure status (2, not 1:
// the file could not be analyzed at all).
func TestParseErrorIsClickable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.ad")
	if err := os.WriteFile(path, []byte("[\n  Memory = ;\n]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{path}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stdout.String(), path+":2:") {
		t.Errorf("diagnostic not clickable: %q", stdout.String())
	}
}

// TestExitContract pins the documented CLI contract: 0 = clean, 1 =
// diagnostics, 2 = usage/parse/IO failure — and that -h documents it.
func TestExitContract(t *testing.T) {
	dir := t.TempDir()
	broken := filepath.Join(dir, "broken.ad")
	if err := os.WriteFile(broken, []byte("[ Memory = ;"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{filepath.Join(lintDir, "clean.ad")}, 0},
		{"diagnostics", []string{filepath.Join(lintDir, "unsat.ad")}, 1},
		{"warnings without strict", []string{filepath.Join(lintDir, "typo.ad")}, 0},
		{"warnings with strict", []string{"-strict", filepath.Join(lintDir, "typo.ad")}, 1},
		{"parse failure", []string{broken}, 2},
		{"parse failure beats diagnostics", []string{broken, filepath.Join(lintDir, "unsat.ad")}, 2},
		{"missing file", []string{filepath.Join(dir, "nope.ad")}, 2},
		{"no arguments", nil, 2},
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"against and corpus", []string{"-against", "x.ad", "-corpus", "y.ad"}, 2},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.want {
			t.Errorf("%s: exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
				tc.name, code, tc.want, stdout.String(), stderr.String())
		}
	}

	// The usage text must document the contract.
	var stdout, stderr bytes.Buffer
	run([]string{"-h"}, &stdout, &stderr)
	if !strings.Contains(stderr.String(), "exit status: 0 = clean, 1 = diagnostics") {
		t.Errorf("usage does not document the exit contract:\n%s", stderr.String())
	}
}

// runGolden compares one invocation of the tool against a .want file:
// first line "exit N", rest the exact stdout with the lint directory
// prefix stripped.
func runGolden(t *testing.T, wantPath string, args ...string) {
	t.Helper()
	wantRaw, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	lines := strings.SplitN(strings.TrimRight(string(wantRaw), "\n"), "\n", 2)
	wantExit, err := strconv.Atoi(strings.TrimPrefix(lines[0], "exit "))
	if err != nil {
		t.Fatalf("bad exit line %q: %v", lines[0], err)
	}
	wantOut := ""
	if len(lines) > 1 {
		wantOut = lines[1] + "\n"
	}
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	got := strings.ReplaceAll(stdout.String(), lintDir+string(filepath.Separator), "")
	if code != wantExit {
		t.Errorf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, wantExit, stdout.String(), stderr.String())
	}
	if got != wantOut {
		t.Errorf("output mismatch\ngot:\n%s\nwant:\n%s", got, wantOut)
	}
}

// TestAgainstMode pins the bilateral fixture: a request/offer pair
// with contradictory mutual constraints is flagged CAD301 on both
// sides, plus the CAD303 rank warning.
func TestAgainstMode(t *testing.T) {
	runGolden(t, filepath.Join(lintDir, "bilateral", "pair.want"),
		"-against", filepath.Join(lintDir, "bilateral", "offers.ad"),
		filepath.Join(lintDir, "bilateral", "request.ad"))
}

// TestCorpusMode pins the pool audit: a cross-ad type conflict
// (CAD304) and the dead ads it strands (CAD305), with schema hints.
func TestCorpusMode(t *testing.T) {
	dir := filepath.Join(lintDir, "corpus")
	runGolden(t, filepath.Join(dir, "corpus.want"), "-corpus",
		filepath.Join(dir, "dead-job.ad"), filepath.Join(dir, "live-job.ad"),
		filepath.Join(dir, "machine-a.ad"), filepath.Join(dir, "machine-b.ad"))
}

// TestIndexMode pins the index-friendliness pass: CAD401 for an
// unindexable constraint, CAD402 for a comparison against a literal
// error.
func TestIndexMode(t *testing.T) {
	dir := filepath.Join(lintDir, "index")
	runGolden(t, filepath.Join(dir, "index.want"), "-index",
		filepath.Join(dir, "unindexable.ad"), filepath.Join(dir, "unsat.ad"))
}

// TestAgainstShippedAdsClean is the zero-false-positive acceptance
// check: the shipped example pair genuinely matches, so the bilateral
// analyzer must stay silent about it, in both directions.
func TestAgainstShippedAdsClean(t *testing.T) {
	job := "../../examples/ads/job.ad"
	machine := "../../examples/ads/machine.ad"
	for _, args := range [][]string{
		{"-against", machine, job},
		{"-against", job, machine},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Errorf("cadlint %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestPoolMode lints the ads of a live in-process collector.
func TestPoolMode(t *testing.T) {
	store := collector.New(nil)
	srv := collector.NewServer(store, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	good := classad.MustParse(`[ Name = "good"; Type = "Machine"; Memory = 64; Rank = other.Mips; Constraint = other.Type == "Job" ]`)
	bad := classad.MustParse(`[ Name = "bad"; Type = "Job"; Rank = other.Mips; Constraint = other.Memory > 64 && other.Memory < 32 ]`)
	client := &collector.Client{Addr: addr}
	for _, ad := range []*classad.Ad{good, bad} {
		if err := client.Advertise(ad, 60); err != nil {
			t.Fatal(err)
		}
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-pool", addr}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "good: ok") {
		t.Errorf("clean ad not reported ok:\n%s", out)
	}
	if !strings.Contains(out, "bad:") || !strings.Contains(out, "CAD201") {
		t.Errorf("unsatisfiable pool ad not flagged:\n%s", out)
	}
}

// servePool stands up an in-process collector holding ads and returns
// its address. The collector stores every ad it is sent, however
// unsatisfiable: linting is cadlint's job, not the daemon's.
func servePool(t *testing.T, ads ...*classad.Ad) string {
	t.Helper()
	store := collector.New(nil)
	srv := collector.NewServer(store, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	client := &collector.Client{Addr: addr}
	for _, ad := range ads {
		if err := client.Advertise(ad, 60); err != nil {
			t.Fatalf("advertise %v: %v", ad, err)
		}
	}
	if got := store.Len(); got != len(ads) {
		t.Fatalf("collector stored %d of %d ads: it must never gatekeep", got, len(ads))
	}
	return addr
}

// reported says whether out has a line for the ad named name; with a
// code, a line carrying that code.
func reported(out, name, code string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+":") && strings.Contains(line, code) {
			return true
		}
	}
	return false
}

// TestPoolCorpusMode audits a live pool as one corpus: the job that
// demands more memory than any machine has, and more than the machine
// accepts, is a dead ad (CAD305); the job the machine can serve is not.
func TestPoolCorpusMode(t *testing.T) {
	addr := servePool(t,
		classad.MustParse(`[ Name = "m1"; Type = "Machine"; Memory = 64; Constraint = other.Memory <= 64 ]`),
		classad.MustParse(`[ Name = "ok"; Type = "Job"; Memory = 31; Constraint = other.Memory >= 31 ]`),
		classad.MustParse(`[ Name = "dead"; Type = "Job"; Memory = 4096; Constraint = other.Memory >= 4096 ]`))

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-corpus", "-pool", addr}, &stdout, &stderr); code != exitClean {
		t.Fatalf("exit = %d, want 0 (CAD305 is a warning)\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !reported(out, "dead", "CAD305") {
		t.Errorf("dead job not reported CAD305:\n%s", out)
	}
	if reported(out, "ok", "") {
		t.Errorf("matchable job reported:\n%s", out)
	}
}

// TestPoolIndexMode runs the index-friendliness pass over a live pool:
// a constraint with no indexable conjunct is CAD401, one the offer
// index can prune on is not.
func TestPoolIndexMode(t *testing.T) {
	addr := servePool(t,
		classad.MustParse(`[ Name = "scan"; Type = "Job"; Constraint = member("intel", other.Archs) ]`),
		classad.MustParse(`[ Name = "pruned"; Type = "Job"; Memory = 31; Constraint = other.Memory >= self.Memory ]`))

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-index", "-pool", addr}, &stdout, &stderr); code != exitClean {
		t.Fatalf("exit = %d, want 0 (CAD401 is a warning)\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !reported(out, "scan", "CAD401") {
		t.Errorf("unindexable constraint not reported CAD401:\n%s", out)
	}
	if reported(out, "pruned", "CAD401") {
		t.Errorf("indexable constraint reported CAD401:\n%s", out)
	}
}
