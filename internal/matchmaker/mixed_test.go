package matchmaker

import (
	"math"
	"testing"

	"repro/internal/store"
)

// TestPriorityTablePersistence: a table folded into a ledger snapshot
// comes back with its usage and its decay semantics, and a corrupt
// snapshot refuses to open rather than start an empty history.
func TestPriorityTablePersistence(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenUsageLedger(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt := led.Table()
	pt.SetHalfLife(100)
	pt.Advance(50)
	pt.Record("alice", 8)
	pt.Record("bob", 2)
	if err := led.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := led.Stats().SinceSnapshot; n != 0 {
		t.Fatalf("%d records after the snapshot, want 0: the reopen must read the snapshot alone", n)
	}

	led2, err := reopenLedger(t, led, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	restored := led2.Table()
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

	// Corrupt snapshot: a real error.
	bad := t.TempDir()
	l, _, err := store.Open(bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("{nope")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if led, err := OpenUsageLedger(bad, nil); err == nil {
		led.Close()
		t.Error("corrupt snapshot should error")
	}
}
