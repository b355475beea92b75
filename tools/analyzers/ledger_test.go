package analyzers_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/tools/analyzers"
)

// ledgerConfigs are the configuration structs whose every field owes
// the ledger a row.
var ledgerConfigs = []string{"matchmaker.Config", "pool.ManagerConfig"}

var (
	// ledgerRowRe is one row of the ledger: the item in backquotes,
	// what needs it, the verdict.
	ledgerRowRe = regexp.MustCompile("^\\| `([^`]+)`[^|]* \\| (.*) \\| ([^|]+) \\|$")
	verdictRe   = regexp.MustCompile(`^(keep|deleted here|open, item \d+(\([a-z]\))?)$`)
	testNameRe  = regexp.MustCompile("`((?:Test|Benchmark|Fuzz|Example)\\w*)`")
	quotedRe    = regexp.MustCompile("`([^`]+)`")
	expRe       = regexp.MustCompile(`\bE(\d+)\b`)
	mcCodeRe    = regexp.MustCompile(`\bMC\d{3}\b`)
	// binFlagRe is a binary flag as a row cites it: `cpool -store-dir`.
	binFlagRe = regexp.MustCompile("`(c\\w+) -([\\w-]+)`")
)

// ledgerRow is what the ledger says about one item.
type ledgerRow struct {
	needs, verdict string
}

// TestDesignDocLedgerInSync is a `make lint-codes` gate on DESIGN.md
// §6's ledger. Every package (each cmd/ binary and example included),
// every field of the ledgerConfigs structs, every analyzer in All()
// and every function that opens a durable store (calls store.Open)
// has a row; every row names something that exists — or, with the
// verdict "deleted here", something that no longer does; and every
// test, workload, experiment and MC code a row cites as its need
// exists too, so a "keep" row cannot outlive the reason it gives. A
// durable store is kept only if its row names the binary flag that
// opens it (`cpool -store-dir`): a journal no binary opens is state
// production never runs.
func TestDesignDocLedgerInSync(t *testing.T) {
	rows := readLedger(t)
	src := indexRepo(t, "../..")
	analyzerNames := map[string]bool{}
	for _, a := range analyzers.All() {
		analyzerNames[a.Name] = true
	}

	want := map[string]bool{}
	for dir := range src.packages {
		want[dir] = true
	}
	for name := range src.decls {
		for _, cfg := range ledgerConfigs {
			if rest, ok := strings.CutPrefix(name, cfg+"."); ok && !strings.Contains(rest, ".") {
				want[name] = true
			}
		}
	}
	for name := range analyzerNames {
		want[name] = true
	}
	for name := range src.storeOpeners {
		want[name] = true
	}
	for item := range want {
		if _, ok := rows[item]; !ok {
			t.Errorf("DESIGN.md §6 ledger has no row for %s", item)
		}
	}

	workloads := benchmarkWorkloads(t, "../../BENCHMARK.json")
	experiments := experimentSections(t, "../../EXPERIMENTS.md")
	for item, row := range rows {
		exists := src.packages[item] || src.decls[item] || analyzerNames[item]
		switch deleted := row.verdict == "deleted here"; {
		case deleted && exists:
			t.Errorf("ledger row %s says deleted here, but it still exists", item)
		case !deleted && !exists:
			t.Errorf("ledger row %s names no package, declaration or analyzer in the tree", item)
		}
		cited := 0
		for _, m := range testNameRe.FindAllStringSubmatch(row.needs, -1) {
			cited++
			if !src.tests[m[1]] {
				t.Errorf("ledger row %s cites %s, which no _test.go declares", item, m[1])
			}
		}
		for _, m := range quotedRe.FindAllStringSubmatch(row.needs, -1) {
			if workloads[m[1]] {
				cited++
			}
		}
		for _, m := range expRe.FindAllStringSubmatch(row.needs, -1) {
			cited++
			if !experiments[m[0]] {
				t.Errorf("ledger row %s cites %s, which EXPERIMENTS.md has no section for", item, m[0])
			}
		}
		for _, code := range mcCodeRe.FindAllString(row.needs, -1) {
			cited++
			if !src.mcCodes[code] {
				t.Errorf("ledger row %s cites %s, which internal/modelcheck does not define", item, code)
			}
		}
		if row.verdict == "keep" && cited == 0 {
			t.Errorf("ledger row %s is kept but cites no test, workload, experiment or MC code", item)
		}
		if row.verdict == "keep" && src.storeOpeners[item] && !src.opensFromFlag(item, row.needs) {
			t.Errorf("ledger row %s keeps a durable store but names no `binary -flag` that declares the flag and calls it", item)
		}
	}
}

// opensFromFlag reports whether needs cites a `binary -flag` whose
// cmd/ main package declares the flag and calls opener by name.
func (idx repoIndex) opensFromFlag(opener, needs string) bool {
	call := opener[strings.LastIndex(opener, ".")+1:]
	for _, m := range binFlagRe.FindAllStringSubmatch(needs, -1) {
		bin := idx.binaries[m[1]]
		if bin != nil && bin.flags[m[2]] && bin.calls[call] {
			return true
		}
	}
	return false
}

// readLedger parses the table under DESIGN.md's "## 6." heading.
func readLedger(t *testing.T) map[string]ledgerRow {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## 6.")
	if !ok {
		t.Fatal("DESIGN.md has no §6")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]ledgerRow{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		m := ledgerRowRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("ledger row not in `item` | needed by | verdict form: %s", line)
			continue
		}
		if _, dup := rows[m[1]]; dup {
			t.Errorf("ledger lists %s twice", m[1])
		}
		if !verdictRe.MatchString(m[3]) {
			t.Errorf("ledger row %s: verdict %q is none of keep, deleted here, open, item N", m[1], m[3])
		}
		rows[m[1]] = ledgerRow{needs: m[2], verdict: m[3]}
	}
	if len(rows) == 0 {
		t.Fatal("no ledger rows found in DESIGN.md §6")
	}
	return rows
}

// repoIndex is what the ledger's items and citations are checked
// against.
type repoIndex struct {
	packages     map[string]bool // directories holding non-test Go files, "." for the root
	decls        map[string]bool // pkg.Name, pkg.Type.Field and pkg.Type.Method
	tests        map[string]bool // Test*, Benchmark*, Fuzz* and Example* functions
	mcCodes      map[string]bool // MC codes spelled in internal/modelcheck's source
	storeOpeners map[string]bool // pkg.Func or pkg.Type.Method calling store.Open
	binaries     map[string]*binaryIndex
}

// binaryIndex is what one cmd/ binary declares and calls.
type binaryIndex struct {
	flags map[string]bool // names given to flag.String, flag.Bool, …
	calls map[string]bool // names of the functions its main package calls
}

// indexRepo parses every Go file of the module under root, skipping
// the bench module, testdata and hidden directories.
func indexRepo(t *testing.T, root string) repoIndex {
	t.Helper()
	idx := repoIndex{map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]*binaryIndex{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || rel == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					idx.tests[fd.Name.Name] = true
				}
			}
			return nil
		}
		idx.packages[filepath.ToSlash(filepath.Dir(rel))] = true
		if strings.HasPrefix(rel, "internal/modelcheck/") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, code := range mcCodeRe.FindAllString(string(data), -1) {
				idx.mcCodes[code] = true
			}
		}
		if f.Name.Name != "main" {
			indexDecls(f, idx.decls)
			indexStoreOpeners(f, idx.storeOpeners)
		} else if dir, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(rel)), "cmd/"); ok {
			bin := idx.binaries[dir]
			if bin == nil {
				bin = &binaryIndex{map[string]bool{}, map[string]bool{}}
				idx.binaries[dir] = bin
			}
			indexBinary(f, bin)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// indexDecls records a file's top-level names, its struct types'
// fields and its methods, each qualified by the package name.
func indexDecls(f *ast.File, decls map[string]bool) {
	pkg := f.Name.Name + "."
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decls[pkg+d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				decls[pkg+id.Name+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, name := range s.Names {
						decls[pkg+name.Name] = true
					}
				case *ast.TypeSpec:
					decls[pkg+s.Name.Name] = true
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							decls[pkg+s.Name.Name+"."+name.Name] = true
						}
					}
				}
			}
		}
	}
}

// indexStoreOpeners records the file's functions and methods whose
// bodies call store.Open, qualified as indexDecls qualifies them.
func indexStoreOpeners(f *ast.File, openers map[string]bool) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := f.Name.Name + "." + fd.Name.Name
		if fd.Recv != nil {
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				name = f.Name.Name + "." + id.Name + "." + fd.Name.Name
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isSelector(call.Fun, "store", "Open") {
				openers[name] = true
			}
			return true
		})
	}
}

// indexBinary records the flags a main package declares and the names
// of the functions it calls.
func indexBinary(f *ast.File, bin *binaryIndex) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		bin.calls[sel.Sel.Name] = true
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == "flag" {
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) > arg {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					bin.flags[strings.Trim(lit.Value, "`\"")] = true
				}
			}
		}
		return true
	})
}

// isSelector reports whether e is pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
}

// benchmarkWorkloads reads the workload names BENCHMARK.json declares.
func benchmarkWorkloads(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, w := range decl.Workloads {
		out[w.Name] = true
	}
	return out
}

// experimentSections reads the E-numbers of EXPERIMENTS.md's "## EN —"
// headings.
func experimentSections(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (E\d+) `).FindAllStringSubmatch(string(raw), -1) {
		out[m[1]] = true
	}
	return out
}
