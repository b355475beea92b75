package matchmaker

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/store"
)

// UsageLedger makes the fair-share accounting durable. The paper is
// explicit that everything else in the matchmaker is soft state
// rebuilt by re-advertising (§4.3), but usage history is the one
// thing a restart genuinely loses: forget it and every past resource
// hog restarts with the best priority in the pool. The ledger
// journals every PriorityTable mutation through a store.Log as it
// happens, so the history a restarted (or failed-over) negotiator
// charges against is exactly the history its predecessor accumulated
// — and `chistory -ledger` reads the same source of truth. It is the
// only durable home of usage history.

// ledgerSnapshotEvery bounds WAL growth: MaybeCompact folds the table
// into a fresh snapshot once this many records have accumulated.
const ledgerSnapshotEvery = 256

// Usage-journal operation names.
const (
	usageOpRecord   = "record"
	usageOpReset    = "reset"
	usageOpHalfLife = "halflife"
)

// usageRecord is one journaled PriorityTable mutation. Now carries the
// table's virtual clock at mutation time so replay reproduces decay
// exactly.
type usageRecord struct {
	Op       string  `json:"op"`
	Customer string  `json:"customer,omitempty"`
	Amount   float64 `json:"amount,omitempty"`
	Now      float64 `json:"now,omitempty"`
}

// UsageLedger couples a PriorityTable to a write-ahead log.
type UsageLedger struct {
	table *PriorityTable

	mu  sync.Mutex
	log *store.Log
	err error
}

// OpenUsageLedger opens (or creates) the durable usage ledger at dir,
// replaying any surviving history into a fresh PriorityTable and
// attaching the journal so every subsequent mutation is persisted. fs
// selects the filesystem (nil for the real one).
func OpenUsageLedger(dir string, fs store.FS) (*UsageLedger, error) {
	l, rec, err := store.Open(dir, fs)
	if err != nil {
		return nil, err
	}
	table, err := replayUsage(rec)
	if err != nil {
		l.Close()
		return nil, err
	}
	led := &UsageLedger{table: table, log: l}
	table.setJournal(led.append)
	return led, nil
}

// replayUsage rebuilds a PriorityTable from a recovered (or shipped)
// snapshot and the journal records after it. The table it returns has
// no journal attached.
func replayUsage(rec *store.Recovered) (*PriorityTable, error) {
	table := NewPriorityTable()
	if len(rec.Snapshot) > 0 {
		if err := table.UnmarshalJSON(rec.Snapshot); err != nil {
			return nil, fmt.Errorf("matchmaker: ledger snapshot: %w", err)
		}
	}
	for _, raw := range rec.Records {
		var r usageRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("matchmaker: corrupt ledger record: %w", err)
		}
		switch r.Op {
		case usageOpRecord:
			table.Advance(r.Now)
			table.Record(r.Customer, r.Amount)
		case usageOpReset:
			table.Reset()
		case usageOpHalfLife:
			table.SetHalfLife(r.Amount)
		default:
			return nil, fmt.Errorf("matchmaker: unknown ledger op %q", r.Op)
		}
	}
	return table, nil
}

// Table returns the ledger-backed priority table; hand it to
// New(…).SetUsage or read it directly. All mutations made through it
// are journaled.
func (u *UsageLedger) Table() *PriorityTable { return u.table }

// append is the PriorityTable journal hook. It runs with the table
// lock held, so it must not call back into the table; snapshotting
// (which serializes the table) is deferred to MaybeCompact.
func (u *UsageLedger) append(r usageRecord) {
	raw, err := json.Marshal(r)
	if err != nil {
		return // unreachable for this struct
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.err != nil {
		return
	}
	if err := u.log.Append(raw); err != nil {
		u.err = err
	}
}

// Err reports the first persistence failure. Once set, further
// mutations stop being journaled (fail-stop, like the underlying log);
// the table keeps working in memory and the caller should arrange a
// reopen.
func (u *UsageLedger) Err() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.err
}

// MaybeCompact folds the table into a fresh snapshot if the WAL has
// grown past the policy threshold. The negotiator calls it once per
// cycle — cheap when below threshold.
func (u *UsageLedger) MaybeCompact() error {
	u.mu.Lock()
	due := u.err == nil && u.log.SinceSnapshot() >= ledgerSnapshotEvery
	u.mu.Unlock()
	if !due {
		return nil
	}
	return u.Compact()
}

// Compact forces a snapshot now. Lock order matters: the table is
// serialized first (table lock), then the log written (ledger lock) —
// never both at once, since append acquires them in the opposite
// nesting.
func (u *UsageLedger) Compact() error {
	data, err := u.table.MarshalJSON()
	if err != nil {
		return err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.err != nil {
		return u.err
	}
	if err := u.log.Snapshot(data); err != nil {
		u.err = err
		return err
	}
	return nil
}

// Stats reports the underlying log's statistics.
func (u *UsageLedger) Stats() store.Stats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.log.Stats()
}

// Instrument routes the underlying log's activity into reg (the
// store_wal_* and store_snapshot_* metrics).
func (u *UsageLedger) Instrument(reg *obs.Registry) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.log.Instrument(reg)
}

// Ship serializes the ledger for warm handoff to a standby (the
// store.Log bundle format).
func (u *UsageLedger) Ship() ([]byte, error) {
	// Snapshot first so the bundle is one compact image plus an empty
	// WAL tail — but only when records accumulated since the last one.
	// A standby polls Ship on every heartbeat; an unconditional compact
	// would churn a generation (snapshot + fsync + rename) per poll on
	// an idle pool.
	u.mu.Lock()
	dirty := u.err == nil && u.log.SinceSnapshot() > 0
	u.mu.Unlock()
	if dirty {
		if err := u.Compact(); err != nil {
			return nil, err
		}
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.log.Ship()
}

// Install replaces the ledger's contents with a shipped bundle,
// rebuilding the table from it. The local history it replaces is
// retired with the old log generation. A bundle the log refuses
// before committing it leaves the ledger journaling its old history;
// once the log holds the bundle, a failure to finish installing or to
// replay it fail-stops the ledger (Err), since the table and the log
// no longer agree.
func (u *UsageLedger) Install(bundle []byte) error {
	u.table.setJournal(nil)
	defer u.table.setJournal(u.append)
	u.mu.Lock()
	rec, err := u.log.Install(bundle)
	if err != nil {
		if u.log.Broken() {
			u.err = err
		}
		u.mu.Unlock()
		return err
	}
	fresh, err := replayUsage(rec)
	u.err = err
	u.mu.Unlock()
	if err != nil {
		return err
	}
	// Swap the rebuilt state into the existing table: callers hold
	// pointers to it.
	u.table.adopt(fresh)
	return nil
}

// Close releases the log; the table keeps working in memory but stops
// journaling.
func (u *UsageLedger) Close() error {
	u.table.setJournal(nil)
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.log.Close()
}
