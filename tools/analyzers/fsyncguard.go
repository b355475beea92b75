package analyzers

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// FsyncGuard enforces the durability invariant introduced with
// internal/store: state that must survive a crash is persisted through
// the store layer's store.Log, never with raw os.WriteFile / os.Rename. Neither
// of those syncs the file or its directory, so a power cut can leave a
// truncated file behind a completed rename — the torn state the WAL's
// crash tests exist to rule out. Two rules:
//
//  1. In internal/ packages, calls to os.WriteFile and os.Rename are
//     flagged. internal/store/fs.go is exempt: it is the FS boundary
//     that wraps exactly these primitives with the sync discipline.
//  2. Inside internal/store, a function that calls .Write(...) on
//     anything must also call .Sync(...) — the store layer is where
//     the durability ritual lives, so an unsynced write there is a
//     hole in the contract, not a style choice.
//
// A `//fsyncguard:ok <reason>` comment — on the offending line, or in
// the function's doc comment for rule 2 — suppresses a finding; the
// fault injector uses it where a torn, unsynced write is the point.
var FsyncGuard = &Analyzer{
	Name:      "fsyncguard",
	Doc:       "flags persistence that skips the fsync discipline: raw os.WriteFile/os.Rename in internal/, unsynced writes in internal/store",
	SkipTests: true,
	Run:       runFsyncGuard,
}

// fsyncNames are the package-os calls that look like persistence but
// guarantee none: no file sync, no directory sync.
var fsyncNames = map[string]bool{
	"WriteFile": true,
	"Rename":    true,
}

func runFsyncGuard(p *Pass) {
	dir := filepath.ToSlash(p.Pkg.Dir)
	if !strings.Contains(dir, "internal/") {
		return
	}
	inStore := strings.HasSuffix(dir, "internal/store")
	if !(inStore && strings.HasSuffix(p.File.Path, "fs.go")) {
		checkRawOsPersistence(p)
	}
	if inStore {
		checkUnsyncedWrites(p)
	}
}

// checkRawOsPersistence implements rule 1: os.WriteFile / os.Rename
// outside the FS boundary, resolved by object identity so an aliased
// or dot import of "os" cannot dodge the rule.
func checkRawOsPersistence(p *Pass) {
	inSelector := map[*ast.Ident]bool{}
	report := func(n ast.Node, qual, name string) {
		if suppressedAtLine(p, p.Pkg.Fset.Position(n.Pos()).Line) {
			return
		}
		p.Reportf(n.Pos(),
			"%s.%s persists without fsync: use a store.Log so the data survives a crash",
			qual, name)
	}
	ast.Inspect(p.File.Ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			inSelector[n.Sel] = true
			obj := p.use(n.Sel)
			if fromPkg(obj, "os") && pkgScoped(obj) && fsyncNames[obj.Name()] {
				report(n, writtenQualifier(n, "os"), obj.Name())
			}
		case *ast.Ident:
			obj := p.use(n)
			if !inSelector[n] && fromPkg(obj, "os") && pkgScoped(obj) && fsyncNames[obj.Name()] {
				report(n, "os", obj.Name())
			}
		}
		return true
	})
}

// checkUnsyncedWrites implements rule 2: within internal/store, every
// function that writes must sync (or carry the directive).
func checkUnsyncedWrites(p *Pass) {
	for _, decl := range p.File.Ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		// CommentGroup.Text() strips directive comments, so scan the
		// raw list for the waiver.
		if fd.Doc != nil && directiveIn(fd.Doc) {
			continue
		}
		var writes []*ast.SelectorExpr
		synced := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Write":
				writes = append(writes, sel)
			case "Sync", "SyncDir":
				synced = true
			}
			return true
		})
		if synced {
			continue
		}
		for _, sel := range writes {
			if suppressedAtLine(p, p.Pkg.Fset.Position(sel.Pos()).Line) {
				continue
			}
			p.Reportf(sel.Pos(),
				"write without a Sync in the same function: the store layer owns the durability ritual (//fsyncguard:ok <reason> to waive)")
		}
	}
}

// directiveIn reports whether a comment group carries the waiver.
func directiveIn(cg *ast.CommentGroup) bool {
	for _, c := range cg.List {
		if strings.Contains(c.Text, "fsyncguard:ok") {
			return true
		}
	}
	return false
}

// suppressedAtLine reports whether a //fsyncguard:ok directive sits on
// the given source line.
func suppressedAtLine(p *Pass, line int) bool {
	for _, cg := range p.File.Ast.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, "fsyncguard:ok") {
				continue
			}
			if p.Pkg.Fset.Position(c.Pos()).Line == line {
				return true
			}
		}
	}
	return false
}
