package classad

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestAttrPos checks that parsed ads remember where each attribute was
// defined, 1-based, and that programmatic ads report none.
func TestAttrPos(t *testing.T) {
	ad := MustParse("[\n    Memory = 64;\n    OpSys  = \"SOLARIS251\";\n  Rank = 1\n]")
	cases := []struct {
		attr      string
		line, col int
	}{
		{"Memory", 2, 5},
		{"opsys", 3, 5}, // lookup folds case
		{"Rank", 4, 3},
	}
	for _, tc := range cases {
		p, ok := ad.AttrPos(tc.attr)
		if !ok {
			t.Errorf("AttrPos(%s): no position", tc.attr)
			continue
		}
		if p.Line != tc.line || p.Col != tc.col {
			t.Errorf("AttrPos(%s) = %d:%d, want %d:%d", tc.attr, p.Line, p.Col, tc.line, tc.col)
		}
	}
	if _, ok := ad.AttrPos("Missing"); ok {
		t.Error("AttrPos(Missing) ok = true")
	}

	prog := NewAd()
	prog.SetInt("Memory", 64)
	if _, ok := prog.AttrPos("Memory"); ok {
		t.Error("programmatic ad reports a position")
	}
}

// TestAttrPosSurvivesCopyAndDelete checks position bookkeeping across
// Copy and Delete.
func TestAttrPosSurvivesCopyAndDelete(t *testing.T) {
	ad := MustParse("[ A = 1; B = 2 ]")
	c := ad.Copy()
	if p, ok := c.AttrPos("B"); !ok || p.Line != 1 {
		t.Errorf("copy lost position: %v %v", p, ok)
	}
	c.Delete("B")
	if _, ok := c.AttrPos("B"); ok {
		t.Error("deleted attribute still has a position")
	}
	// The original is unaffected.
	if _, ok := ad.AttrPos("B"); !ok {
		t.Error("original lost position after copy mutation")
	}
	// Positions sit beside the names: deleting an earlier attribute
	// must not shift a later one's, and an attribute set by the program
	// on a parsed ad has none.
	d := MustParse("[ A = 1;\n B = 2;\n C = 3 ]")
	d.Delete("A")
	d.SetInt("D", 4)
	if p, ok := d.AttrPos("C"); !ok || p.Line != 3 || p.Col != 2 {
		t.Errorf("AttrPos(C) after deleting A = %v %v, want 3:2", p, ok)
	}
	if p, ok := d.AttrPos("D"); ok {
		t.Errorf("attribute set by the program reports position %v", p)
	}
	if keys := d.Keys(); len(keys) != 3 || keys[0] != "b" || keys[2] != "d" {
		t.Errorf("Keys() = %v, want [b c d]", keys)
	}
}

// TestAttrPosBareAd checks the unbracketed form tracks positions too.
func TestAttrPosBareAd(t *testing.T) {
	ad := MustParse("Memory = 64\nOpSys = \"LINUX\"\n")
	if p, ok := ad.AttrPos("OpSys"); !ok || p.Line != 2 || p.Col != 1 {
		t.Errorf("AttrPos(OpSys) = %v %v, want 2:1", p, ok)
	}
}

// TestSyntaxErrorCarriesColumn checks the new line:col locator while
// preserving the historical message as a suffix.
func TestSyntaxErrorCarriesColumn(t *testing.T) {
	_, err := Parse("[\n  Memory = ;\n]")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Line != 2 || se.Col != 12 {
		t.Errorf("position = %d:%d, want 2:12", se.Line, se.Col)
	}
	msg := se.Error()
	if !strings.HasPrefix(msg, "2:12: ") {
		t.Errorf("message %q lacks line:col prefix", msg)
	}
	if !strings.Contains(msg, "classad: line 2: ") {
		t.Errorf("message %q lost the historical format", msg)
	}
}

// TestColumnAfterComments checks that block comments spanning lines
// keep the column bookkeeping honest.
func TestColumnAfterComments(t *testing.T) {
	ad := MustParse("[ /* multi\nline\ncomment */ Memory = 64 ]")
	if p, ok := ad.AttrPos("Memory"); !ok || p.Line != 3 || p.Col != 12 {
		t.Errorf("AttrPos(Memory) = %v %v, want 3:12", p, ok)
	}
}

// TestFoldKeySharesOneCopy: kept keys are Fold's result, shared — a
// name seen before folds without allocating, in either spelling, and
// two ads hold the same key string.
func TestFoldKeySharesOneCopy(t *testing.T) {
	for _, name := range []string{"Memory", "memory", "KeyboardIdle", "x", "", "ÉCOLE"} {
		if got := foldKey(name); got != Fold(name) {
			t.Errorf("foldKey(%q) = %q, want %q", name, got, Fold(name))
		}
	}
	if n := testing.AllocsPerRun(100, func() { foldKey("KeyboardIdle") }); n != 0 {
		t.Errorf("folding a known name allocates %.0f times", n)
	}
	a, b := MustParse(`[ KeyboardIdle = 1 ]`), MustParse(`[ keyboardidle = 2; R = KEYBOARDIDLE ]`)
	if unsafe.StringData(a.Keys()[0]) != unsafe.StringData(b.Keys()[0]) {
		t.Error("two ads keep separate copies of one key")
	}
}

// TestFoldKeyTableBounded: names come from the network, so the table
// foldKey interns them in stops at its bound. Four goroutines fold
// 20,000 distinct names, each stored in two spellings; the table ends
// at most the documented race slack past maxInternedKeys, its count is
// its true size, and every name, interned or not, folds to Fold(name).
// The table is put back as it was for the tests that follow.
func TestFoldKeyTableBounded(t *testing.T) {
	before := map[any]bool{}
	keyTable.Range(func(k, _ any) bool { before[k] = true; return true })
	t.Cleanup(func() {
		keyTable.Range(func(k, _ any) bool {
			if !before[k] {
				keyTable.Delete(k)
			}
			return true
		})
		keyCount.Store(int64(len(before)))
	})

	const goroutines, perGoroutine = 4, 5000
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perGoroutine {
				name := fmt.Sprintf("Bounded%d_%d", g, i)
				if got := foldKey(name); got != Fold(name) {
					t.Errorf("foldKey(%q) = %q, want %q", name, got, Fold(name))
					return
				}
			}
		}()
	}
	wg.Wait()

	size := 0
	keyTable.Range(func(_, _ any) bool { size++; return true })
	if n := keyCount.Load(); n != int64(size) {
		t.Errorf("keyCount = %d, table holds %d", n, size)
	}
	if limit := maxInternedKeys + 2*goroutines - 1; size > limit {
		t.Errorf("table holds %d entries after 20,000 names, bound %d", size, limit)
	}
	if got := foldKey("PastTheBound"); got != "pastthebound" || keyCount.Load() != int64(size) {
		t.Errorf("past the bound: foldKey = %q, count %d → %d", got, size, keyCount.Load())
	}
}
