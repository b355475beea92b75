package analyzers_test

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// boundRef is one bound in DESIGN.md's Bounds table: a declaration
// named in backquotes, optionally package-qualified, then its value in
// parentheses, in seconds when followed by " s".
var boundRef = regexp.MustCompile("`(?:(\\w+)\\.)?(\\w+)` \\(([\\d,]+)( s)?\\)")

// TestDesignDocBoundsTableInSync is a `make lint-codes` gate: every
// number in the bound column of DESIGN.md §3's Bounds table names the
// declaration it is (`name` (value)), and the value the table gives is
// the one that declaration's source folds to. The source is parsed, not
// imported, because most bounds are unexported.
func TestDesignDocBoundsTableInSync(t *testing.T) {
	decls := boundDecls(t, "../../internal")
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "**Bounds.**")
	if !ok {
		t.Fatal("no **Bounds.** table in DESIGN.md")
	}
	checked := 0
	inTable := false
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, " | ")
		if len(cells) < 2 || strings.HasPrefix(line, "| state |") || strings.HasPrefix(line, "|---") {
			continue
		}
		bound := cells[1]
		for _, m := range boundRef.FindAllStringSubmatch(bound, -1) {
			checked++
			key := m[2]
			if m[1] != "" {
				key = m[1] + "." + m[2]
			}
			expr, ok := decls[key]
			if !ok {
				t.Errorf("Bounds table names %s, which no single declaration under internal/ matches", key)
				continue
			}
			got, ok := foldConst(expr.e, expr.pkg, decls)
			if !ok {
				t.Errorf("%s: cannot fold its declared value", key)
				continue
			}
			want := constant.MakeFromLiteral(strings.ReplaceAll(m[3], ",", ""), token.INT, 0)
			if m[4] != "" {
				want = constant.BinaryOp(want, token.MUL, constant.MakeInt64(1e9))
			}
			if constant.Compare(got, token.NEQ, want) {
				t.Errorf("Bounds table gives %s = %s%s, the source declares %s", key, m[3], m[4], got)
			}
		}
		if rest := boundRef.ReplaceAllString(bound, ""); strings.ContainsAny(rest, "0123456789") {
			t.Errorf("Bounds table row %q has a number that names no declaration: %q", cells[0], rest)
		}
	}
	if checked == 0 {
		t.Fatal("no `name` (value) bounds found in DESIGN.md's Bounds table")
	}
}

// declExpr is a top-level const or var initializer and its package.
type declExpr struct {
	pkg string
	e   ast.Expr
}

// boundDecls indexes every top-level const and var with an initializer
// in the non-test Go files under root, by name and by pkg.name. A bare
// name declared in two packages is left out, so the table must qualify
// it.
func boundDecls(t *testing.T, root string) map[string]declExpr {
	t.Helper()
	decls := map[string]declExpr{}
	dup := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					d := declExpr{pkg: f.Name.Name, e: vs.Values[i]}
					if _, seen := decls[name.Name]; seen {
						dup[name.Name] = true
					}
					decls[name.Name] = d
					decls[f.Name.Name+"."+name.Name] = d
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range dup {
		delete(decls, name)
	}
	return decls
}

// timeUnits are the time package's duration constants, in nanoseconds.
var timeUnits = map[string]int64{
	"Nanosecond": 1, "Microsecond": 1e3, "Millisecond": 1e6,
	"Second": 1e9, "Minute": 60e9, "Hour": 3600e9,
}

// foldConst evaluates a constant expression of package pkg: literals,
// arithmetic and shifts, the package's own constants, and time units.
func foldConst(e ast.Expr, pkg string, decls map[string]declExpr) (constant.Value, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		v := constant.MakeFromLiteral(e.Value, e.Kind, 0)
		return v, v.Kind() != constant.Unknown
	case *ast.ParenExpr:
		return foldConst(e.X, pkg, decls)
	case *ast.Ident:
		d, ok := decls[pkg+"."+e.Name]
		if !ok {
			return nil, false
		}
		return foldConst(d.e, d.pkg, decls)
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && x.Name == "time" {
			ns, ok := timeUnits[e.Sel.Name]
			return constant.MakeInt64(ns), ok
		}
	case *ast.BinaryExpr:
		x, okx := foldConst(e.X, pkg, decls)
		y, oky := foldConst(e.Y, pkg, decls)
		if !okx || !oky {
			return nil, false
		}
		if e.Op == token.SHL || e.Op == token.SHR {
			s, ok := constant.Uint64Val(y)
			return constant.Shift(x, e.Op, uint(s)), ok
		}
		return constant.BinaryOp(x, e.Op, y), true
	}
	return nil, false
}
