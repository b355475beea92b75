package matchmaker

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPriorityTablePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "usage.json")

	pt := NewPriorityTable()
	pt.SetHalfLife(100)
	pt.Advance(50)
	pt.Record("alice", 8)
	pt.Record("bob", 2)
	if err := pt.Save(path); err != nil {
		t.Fatal(err)
	}

	restored := NewPriorityTable()
	if err := restored.Load(path); err != nil {
		t.Fatal(err)
	}
	if u := restored.Effective("alice"); math.Abs(u-8) > 1e-9 {
		t.Errorf("alice restored usage = %v", u)
	}
	if u := restored.Effective("bob"); math.Abs(u-2) > 1e-9 {
		t.Errorf("bob restored usage = %v", u)
	}
	// Decay semantics survive the round trip: one half-life later,
	// usage halves.
	restored.Advance(150)
	if u := restored.Effective("alice"); math.Abs(u-4) > 1e-9 {
		t.Errorf("alice after restored half-life = %v, want 4", u)
	}
	// Missing file: clean no-op.
	fresh := NewPriorityTable()
	if err := fresh.Load(filepath.Join(dir, "nonexistent.json")); err != nil {
		t.Errorf("missing file should not error: %v", err)
	}
	if len(fresh.Customers()) != 0 {
		t.Error("fresh table has customers")
	}
	// Corrupt file: a real error.
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, "{nope"); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Load(bad); err == nil {
		t.Error("corrupt file should error")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
