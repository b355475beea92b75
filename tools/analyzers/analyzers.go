// Package analyzers implements the repository's custom static
// analyzers as a miniature, dependency-free take on the go/analysis
// framework. v2 of the framework is *typed*: the whole module is
// parsed and type-checked once with go/parser + go/types (load.go),
// and every analyzer's Pass carries the package's *types.Info, the
// loaded package graph, and a lazily built cross-package call graph
// (callgraph.go). Analyzers therefore resolve imports, receivers,
// constants and call targets by type identity, not identifier text —
// an aliased or dot import of "net" is still "net", a mutex reached
// through a struct field is still a sync.Mutex, and a helper defined
// in another file (or package) is still followable.
//
// `make verify` drives the suite via tools/analyzers/cmd, so repo
// invariants that gofmt and go vet cannot see — every outbound dial
// goes through internal/netx, modelcheck-replayed code stays
// deterministic — break the build instead of rotting quietly. Rules a
// running program can check live there instead: the one server loop
// (internal/netx's Server.step) gives every request a reply-class
// answer and counts lifecycle envelopes that arrive untraced, and
// internal/obs's TestNilSafety calls every hook method on a nil
// receiver.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one named invariant check, run once per file.
type Analyzer struct {
	// Name identifies the analyzer in findings and test expectations.
	Name string
	// Doc states the invariant the analyzer enforces.
	Doc string
	// SkipTests exempts _test.go files (tests may legitimately break
	// production-only invariants, e.g. dialing a throwaway listener).
	SkipTests bool
	// Run inspects one file and reports violations through the pass.
	Run func(*Pass)
}

// All returns every analyzer `make verify` runs.
func All() []*Analyzer {
	return []*Analyzer{
		NoDial, LockGuard, FsyncGuard, EpochGuard, DetermGuard, SendGuard,
	}
}

// File is one parsed source file.
type File struct {
	Path string
	Ast  *ast.File
	Test bool
}

// Package is one directory's worth of parsed files sharing a FileSet,
// type-checked as one package (in-package _test.go files included,
// exactly as `go test` compiles them).
type Package struct {
	Dir   string
	Path  string // import path ("<module>.test" suffix for external test pkgs)
	Name  string
	Fset  *token.FileSet
	Files []File

	// Types and Info are the go/types results for the package. Info is
	// never nil for a loaded package; TypeErrors collects any check
	// errors (analyzers still run on a partially typed package, the
	// driver surfaces the errors separately).
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Program is one coherent load of the module: the requested packages,
// their shared FileSet, and lazily built whole-program facts (call
// graph, constant tables). All packages share one loader, so types are
// identical across packages and fixture runs.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	loader *loader

	cg        *CallGraph
	msgConsts map[string]string               // constant value -> canonical protocol.Type* name
	blockSumm map[*types.Func]string          // lockguard: does this function block, and how
	reachMemo map[string]map[*types.Func]bool // analyzer name -> reachable-function set
}

// Pass carries one file through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	File     File

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Stat is one analyzer's share of a timed run.
type Stat struct {
	Name     string
	Files    int
	Findings int
	Elapsed  time.Duration
}

// Run applies every analyzer to every file of every package and
// returns the findings in source order.
func Run(as []*Analyzer, prog *Program) []Finding {
	findings, _ := RunTimed(as, prog)
	return findings
}

// RunTimed is Run plus a per-analyzer summary (files visited,
// findings, wall time) for the driver's timing report. Analyzers run
// in the given order; within one analyzer, packages and files run in
// load order, so diagnostics are position-stable across runs.
func RunTimed(as []*Analyzer, prog *Program) ([]Finding, []Stat) {
	var findings []Finding
	stats := make([]Stat, 0, len(as))
	for _, a := range as {
		start := time.Now()
		files := 0
		before := len(findings)
		for _, pkg := range prog.Pkgs {
			for _, f := range pkg.Files {
				if a.SkipTests && f.Test {
					continue
				}
				files++
				a.Run(&Pass{Analyzer: a, Prog: prog, Pkg: pkg, File: f, findings: &findings})
			}
		}
		stats = append(stats, Stat{
			Name:     a.Name,
			Files:    files,
			Findings: len(findings) - before,
			Elapsed:  time.Since(start),
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, stats
}
