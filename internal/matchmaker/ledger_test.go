package matchmaker

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/store"
)

func TestUsageLedgerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenUsageLedger(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := led.Table()
	tab.SetHalfLife(0) // exact arithmetic for the assertions
	tab.Advance(100)
	tab.Record("raman", 3)
	tab.Record("livny", 1)
	tab.Advance(200)
	tab.Record("raman", 2)
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	led2, err := OpenUsageLedger(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	tab2 := led2.Table()
	if got := tab2.Effective("raman"); got != 5 {
		t.Errorf("raman usage = %v, want 5", got)
	}
	if got := tab2.Effective("livny"); got != 1 {
		t.Errorf("livny usage = %v, want 1", got)
	}
	// New charges after recovery land on top of the recovered history.
	tab2.Record("livny", 4)
	led3, err := reopenLedger(t, led2, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led3.Close()
	if got := led3.Table().Effective("livny"); got != 5 {
		t.Errorf("livny usage after second restart = %v, want 5", got)
	}
}

func reopenLedger(t *testing.T, led *UsageLedger, dir string) (*UsageLedger, error) {
	t.Helper()
	if err := led.Close(); err != nil {
		return nil, err
	}
	return OpenUsageLedger(dir, nil)
}

func TestUsageLedgerReplaysDecay(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenUsageLedger(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := led.Table()
	tab.SetHalfLife(100)
	tab.Advance(0)
	tab.Record("u", 8)
	tab.Advance(100) // one half-life
	tab.Record("u", 1)

	// Mirror table, no persistence, same operations.
	want := NewPriorityTable()
	want.SetHalfLife(100)
	want.Advance(0)
	want.Record("u", 8)
	want.Advance(100)
	want.Record("u", 1)

	led2, err := reopenLedger(t, led, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	got, exp := led2.Table().Effective("u"), want.Effective("u")
	if math.Abs(got-exp) > 1e-9 {
		t.Errorf("replayed usage %v, want %v (8 decayed one half-life + 1 = 5)", got, exp)
	}
}

func TestUsageLedgerCompaction(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenUsageLedger(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := led.Table()
	tab.SetHalfLife(0)
	for i := 0; i < ledgerSnapshotEvery+5; i++ {
		tab.Record(fmt.Sprintf("u%d", i%7), 1)
		if err := led.MaybeCompact(); err != nil {
			t.Fatal(err)
		}
	}
	if s := led.Stats(); s.Gen == 0 {
		t.Fatalf("no snapshot after %d records", ledgerSnapshotEvery+5)
	}
	led2, err := reopenLedger(t, led, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	total := 0.0
	for _, c := range led2.Table().Customers() {
		total += led2.Table().Effective(c)
	}
	if int(total) != ledgerSnapshotEvery+5 {
		t.Errorf("recovered total usage %v, want %d", total, ledgerSnapshotEvery+5)
	}
}

func TestUsageLedgerShipInstall(t *testing.T) {
	leader, err := OpenUsageLedger(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leader.Table().SetHalfLife(0)
	leader.Table().Record("a", 2)
	leader.Table().Record("b", 7)
	bundle, err := leader.Ship()
	if err != nil {
		t.Fatal(err)
	}

	standbyDir := t.TempDir()
	standby, err := OpenUsageLedger(standbyDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	standby.Table().Record("stale", 99)
	if err := standby.Install(bundle); err != nil {
		t.Fatal(err)
	}
	if got := standby.Table().Effective("b"); got != 7 {
		t.Errorf("installed usage b = %v, want 7", got)
	}
	if got := standby.Table().Effective("stale"); got != 0 {
		t.Errorf("stale local usage survived install: %v", got)
	}
	// Post-install charges persist across restart.
	standby.Table().Record("b", 1)
	standby2, err := reopenLedger(t, standby, standbyDir)
	if err != nil {
		t.Fatal(err)
	}
	defer standby2.Close()
	if got := standby2.Table().Effective("b"); got != 8 {
		t.Errorf("usage b after restart = %v, want 8", got)
	}
}

// A standby polls Ship on every heartbeat; shipping a clean ledger
// must not churn a log generation per poll, and must hand back a
// byte-identical bundle so the standby can skip re-installing it.
func TestUsageLedgerShipCleanIsStable(t *testing.T) {
	led, err := OpenUsageLedger(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	led.Table().SetHalfLife(0)
	led.Table().Record("a", 3)
	first, err := led.Ship()
	if err != nil {
		t.Fatal(err)
	}
	gen := led.Stats().Gen
	for i := 0; i < 3; i++ {
		again, err := led.Ship()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("ship %d: clean ledger shipped a different bundle", i)
		}
	}
	if got := led.Stats().Gen; got != gen {
		t.Errorf("clean ships advanced the generation: %d -> %d", gen, got)
	}
	// A new record re-dirties the ledger: the next ship compacts.
	led.Table().Record("a", 1)
	if _, err := led.Ship(); err != nil {
		t.Fatal(err)
	}
	if got := led.Stats().Gen; got <= gen {
		t.Errorf("dirty ship did not compact: generation still %d", got)
	}
}

func TestUsageLedgerCrashPoints(t *testing.T) {
	workload := func(led *UsageLedger) (acked int) {
		tab := led.Table()
		tab.SetHalfLife(0)
		for i := 0; i < 8; i++ {
			tab.Record("u", 1)
			if led.Err() != nil {
				return acked
			}
			acked++
		}
		return acked
	}
	ffs := store.NewFaultFS(nil, store.FaultPlan{})
	led, err := OpenUsageLedger(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	workload(led)
	led.Close()
	total := ffs.Stats().Ops

	for k := 1; k <= total; k++ {
		dir := t.TempDir()
		led, err := OpenUsageLedger(dir, store.NewFaultFS(nil, store.FaultPlan{Seed: int64(k), CrashAtOp: k}))
		if err != nil {
			continue
		}
		acked := workload(led)
		led.Close()
		led2, err := OpenUsageLedger(dir, nil)
		if err != nil {
			t.Fatalf("crash@%d: recovery failed: %v", k, err)
		}
		if got := int(led2.Table().Effective("u")); got < acked {
			t.Errorf("crash@%d: recovered %d charges, %d were acknowledged", k, got, acked)
		}
		led2.Close()
	}
}

// TestUsageLedgerRefusedInstallKeepsJournaling: a bundle the log
// refuses before committing it (here, three bytes of one) leaves the
// ledger as it was, journal attached, so later charges survive a
// reopen and Err stays nil.
func TestUsageLedgerRefusedInstallKeepsJournaling(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenUsageLedger(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	led.Table().SetHalfLife(0)
	if err := led.Install([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated bundle installed")
	}
	led.Table().Record("alice", 2)
	if err := led.Err(); err != nil {
		t.Fatalf("Err = %v after a refused install", err)
	}
	led2, err := reopenLedger(t, led, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if got := led2.Table().Effective("alice"); got != 2 {
		t.Errorf("alice usage after reopen = %v, want 2 (charge after a refused install was lost)", got)
	}
}

// TestUsageLedgerUnreplayableInstallFailStops: a bundle the log
// commits but whose records do not replay leaves the log and the
// table disagreeing, so the ledger stops journaling and says so. An
// unknown op fails an install exactly as it fails an open.
func TestUsageLedgerUnreplayableInstallFailStops(t *testing.T) {
	src := t.TempDir()
	l, _, err := store.Open(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{"op":"bogus"}`)); err != nil {
		t.Fatal(err)
	}
	bundle, err := l.Ship()
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := OpenUsageLedger(src, nil); err == nil {
		t.Fatal("open replayed an unknown op")
	}

	led, err := OpenUsageLedger(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if err := led.Install(bundle); err == nil {
		t.Fatal("install replayed an unknown op")
	}
	if led.Err() == nil {
		t.Error("Err = nil after the log took a bundle the table could not replay")
	}
}
