package matchmaker

import (
	"testing"

	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/store"
)

// usageAd is a Negotiator ad carrying a table's Snapshot in the form a
// negotiator publishes it: [ Customer; Usage ] records and UsageAsOf.
func usageAd(t *PriorityTable) *classad.Ad {
	usage, asOf := t.Snapshot()
	ad := classad.NewAd()
	ad.SetString(classad.AttrType, "Negotiator")
	ad.SetString(classad.AttrName, "negotiator@pool")
	var records []classad.Expr
	for c, u := range usage {
		rec := classad.NewAd()
		rec.SetString("Customer", c)
		rec.SetReal("Usage", u)
		records = append(records, classad.NewAdExpr(rec))
	}
	ad.Set("Usage", classad.NewList(records...))
	ad.SetInt("UsageAsOf", int64(asOf))
	return ad
}

// restoreUsage loads the Negotiator ad's usage into a fresh table.
func restoreUsage(ad *classad.Ad) *PriorityTable {
	tab := NewPriorityTable()
	tab.SetHalfLife(0)
	records, _ := ad.Eval("Usage").ListVal()
	usage := make(map[string]float64, len(records))
	for _, r := range records {
		rec, _ := r.AdVal()
		c, _ := rec.Eval("Customer").StringVal()
		u, _ := rec.Eval("Usage").NumberVal()
		usage[c] = u
	}
	asOf, _ := ad.Eval("UsageAsOf").NumberVal()
	tab.Restore(usage, asOf)
	return tab
}

// TestUsageLedgerCrashPoints: the usage ledger is the table's Snapshot
// kept in the Negotiator ad of a durable collector. Crash the
// collector at every mutating filesystem op of a run of charges, each
// republished; a table restored from the recovered ad must hold at
// least every charge whose ad was acknowledged.
func TestUsageLedgerCrashPoints(t *testing.T) {
	env := &classad.Env{
		Now:  func() int64 { return 1000 },
		Rand: func() float64 { return 0.5 },
	}
	workload := func(s *collector.Store) (acked int) {
		tab := NewPriorityTable()
		tab.SetHalfLife(0)
		tab.Advance(1000)
		for i := 0; i < 8; i++ {
			tab.Record("u", 1)
			if err := s.Update(usageAd(tab), 0); err != nil {
				return acked
			}
			acked++
		}
		return acked
	}
	ffs := store.NewFaultFS(nil, store.FaultPlan{})
	s, err := collector.OpenDurable(t.TempDir(), env, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if acked := workload(s); acked != 8 {
		t.Fatalf("fault-free run acknowledged %d charges, want 8", acked)
	}
	s.Close()
	total := ffs.Stats().Ops

	for k := 1; k <= total; k++ {
		dir := t.TempDir()
		s, err := collector.OpenDurable(dir, env, store.NewFaultFS(nil, store.FaultPlan{Seed: int64(k), CrashAtOp: k}))
		if err != nil {
			continue // crashed inside Open; nothing acknowledged
		}
		acked := workload(s)
		s.Close()
		s2, err := collector.OpenDurable(dir, env, nil)
		if err != nil {
			t.Fatalf("crash@%d: recovery failed: %v", k, err)
		}
		ad, ok := s2.Lookup("negotiator@pool")
		if !ok {
			if acked > 0 {
				t.Errorf("crash@%d: Negotiator ad lost, %d charges were acknowledged", k, acked)
			}
			s2.Close()
			continue
		}
		if got := int(restoreUsage(ad).Effective("u")); got < acked {
			t.Errorf("crash@%d: recovered %d charges, %d were acknowledged", k, got, acked)
		}
		s2.Close()
	}
}
