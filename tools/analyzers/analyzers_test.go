package analyzers_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/tools/analyzers"
	"repro/tools/analyzers/analyzertest"
)

// The fixture packages under testdata/src seed one violation per rule
// (plus conforming code that must stay silent); the go tool never
// builds them, only these tests read them.

func TestNoDial(t *testing.T) {
	analyzertest.Run(t, analyzers.NoDial, "testdata/src/nodial")
}

func TestLockGuard(t *testing.T) {
	analyzertest.Run(t, analyzers.LockGuard, "testdata/src/lockguard")
}

func TestFsyncGuard(t *testing.T) {
	// Two fixture packages: the general internal/ rule and the
	// stricter internal/store rule (path placement is load-bearing —
	// the analyzer keys on the package directory).
	analyzertest.Run(t, analyzers.FsyncGuard, "testdata/src/fsyncguard/internal/app")
	analyzertest.Run(t, analyzers.FsyncGuard, "testdata/src/fsyncguard/internal/store")
}

func TestEpochGuard(t *testing.T) {
	// internal/ placement is load-bearing: the analyzer only fires
	// inside internal/ packages.
	analyzertest.Run(t, analyzers.EpochGuard, "testdata/src/epochguard/internal/app")
}

func TestDetermGuard(t *testing.T) {
	// Two packages loaded as one program: the driver package's path
	// makes it the reachability root, the violations live in the app
	// package it replays — the finding is cross-package by design.
	analyzertest.RunDirs(t, analyzers.DetermGuard,
		"testdata/src/determguard/internal/modelcheck",
		"testdata/src/determguard/internal/app")
}

func TestSendGuard(t *testing.T) {
	analyzertest.Run(t, analyzers.SendGuard, "testdata/src/sendguard/internal/app")
}

// TestRepoHonorsInvariants runs every analyzer over the repository
// itself: the invariants hold on the code that ships, not just on the
// fixtures.
func TestRepoHonorsInvariants(t *testing.T) {
	prog, err := analyzers.Load([]string{"../.."})
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	for _, f := range analyzers.Run(analyzers.All(), prog) {
		t.Errorf("%s", f)
	}
}

// TestTypedLoadRepo is the typed-loading harness check: the whole
// module must load and type-check cleanly (a type error would make
// every typed analyzer unsound — the driver refuses to run on one),
// and two runs over the same program must produce byte-identical,
// position-stable diagnostics.
func TestTypedLoadRepo(t *testing.T) {
	prog, err := analyzers.Load([]string{"../.."})
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	if len(prog.Pkgs) < 20 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(prog.Pkgs))
	}
	for _, pkg := range prog.Pkgs {
		if pkg.Info == nil || pkg.Types == nil {
			t.Errorf("%s: loaded without type information", pkg.Path)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
	}
	render := func(fs []analyzers.Finding) []string {
		out := make([]string, len(fs))
		for i, f := range fs {
			out[i] = f.String()
		}
		return out
	}
	first := render(analyzers.Run(analyzers.All(), prog))
	second := render(analyzers.Run(analyzers.All(), prog))
	if len(first) != len(second) {
		t.Fatalf("unstable diagnostics: %d findings then %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("diagnostic %d not position-stable:\n  first:  %s\n  second: %s", i, first[i], second[i])
		}
	}
}

// TestDesignDocAnalyzerTableInSync re-derives the analyzer roster from
// DESIGN.md §9's framework-v2 table and compares it with All(), both
// directions: an analyzer that runs but is undocumented, or a
// documented analyzer that does not run, fails `make lint-codes`.
func TestDesignDocAnalyzerTableInSync(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	lines := strings.Split(string(raw), "\n")
	rowRe := regexp.MustCompile("^\\| `([a-z]+)` \\|")
	var documented []string
	inTable := false
	for _, line := range lines {
		if strings.HasPrefix(line, "| analyzer |") {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		if m := rowRe.FindStringSubmatch(line); m != nil {
			documented = append(documented, m[1])
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		break
	}
	if len(documented) == 0 {
		t.Fatal("no analyzer table found in DESIGN.md §9 (header `| analyzer |`)")
	}
	var running []string
	for _, a := range analyzers.All() {
		running = append(running, a.Name)
	}
	want := append([]string(nil), documented...)
	got := append([]string(nil), running...)
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(want, ",") != strings.Join(got, ",") {
		t.Fatalf("DESIGN.md analyzer table out of sync with All():\ndocumented %v\nrunning    %v", want, got)
	}
}
