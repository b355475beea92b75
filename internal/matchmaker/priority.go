package matchmaker

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
)

// PriorityTable implements the usage accounting behind the paper's
// "fair matching policy" (§4): the matchmaker favours customers who
// have consumed fewer resources, with past usage decaying
// exponentially so that a burst of consumption is eventually forgiven.
// This is the up-down scheme of the deployed Condor negotiator.
type PriorityTable struct {
	mu sync.Mutex
	// usage maps customer -> decayed resource-time consumed.
	usage map[string]float64
	// lastDecay maps customer -> the virtual time of the last decay
	// application.
	lastDecay map[string]float64
	// now is the table's notion of current time; advanced explicitly
	// so that simulations control it.
	now float64
	// halfLife is the decay half-life in the same units as now
	// (seconds by convention). Zero disables decay.
	halfLife float64
	// journal, when set (ledger.go), receives every mutation while the
	// table lock is held, preserving the exact order replay must
	// reproduce. It must not call back into the table.
	journal func(usageRecord)
}

// DefaultHalfLife is the usage half-life used by deployed pools: one
// day of virtual time.
const DefaultHalfLife = 86400

// NewPriorityTable returns an empty table with the default half-life.
func NewPriorityTable() *PriorityTable {
	return &PriorityTable{
		usage:     make(map[string]float64),
		lastDecay: make(map[string]float64),
		halfLife:  DefaultHalfLife,
	}
}

// SetHalfLife changes the decay half-life; zero disables decay.
func (t *PriorityTable) SetHalfLife(h float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.halfLife = h
	if t.journal != nil {
		// Journaled so replay decays with the policy that was actually
		// in force, not the default.
		t.journal(usageRecord{Op: usageOpHalfLife, Amount: h, Now: t.now})
	}
}

// Advance moves the table's clock forward to now (no-op if now is in
// the past). Decay is applied lazily per customer.
func (t *PriorityTable) Advance(now float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if now > t.now {
		t.now = now
	}
}

// decayLocked folds elapsed decay into the stored usage of customer.
func (t *PriorityTable) decayLocked(customer string) {
	if t.halfLife <= 0 {
		t.lastDecay[customer] = t.now
		return
	}
	last, ok := t.lastDecay[customer]
	if !ok {
		t.lastDecay[customer] = t.now
		return
	}
	dt := t.now - last
	if dt <= 0 {
		return
	}
	t.usage[customer] *= math.Pow(0.5, dt/t.halfLife)
	t.lastDecay[customer] = t.now
}

// Record charges amount of usage (resource-seconds, or simply matches
// granted) to customer at the current time.
func (t *PriorityTable) Record(customer string, amount float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.decayLocked(customer)
	t.usage[customer] += amount
	if t.journal != nil {
		t.journal(usageRecord{Op: usageOpRecord, Customer: customer, Amount: amount, Now: t.now})
	}
}

// Effective returns the decayed usage of customer; lower is better
// priority. Unknown customers have zero usage and therefore the best
// possible priority.
func (t *PriorityTable) Effective(customer string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.decayLocked(customer)
	return t.usage[customer]
}

// Customers returns all customers with recorded usage, sorted by
// ascending effective usage (best priority first).
func (t *PriorityTable) Customers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.usage))
	for c := range t.usage {
		t.decayLocked(c)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if t.usage[out[i]] != t.usage[out[j]] {
			return t.usage[out[i]] < t.usage[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Reset forgets all usage, as a pool administrator might after a
// policy change.
func (t *PriorityTable) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.usage = make(map[string]float64)
	t.lastDecay = make(map[string]float64)
	if t.journal != nil {
		t.journal(usageRecord{Op: usageOpReset, Now: t.now})
	}
}

// setJournal installs the mutation hook (ledger.go); nil detaches it.
func (t *PriorityTable) setJournal(fn func(usageRecord)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.journal = fn
}

// adopt replaces the receiver's contents with src's, which must be
// private to the caller (ledger Install: callers keep their pointer to
// the long-lived table while its state is swapped wholesale).
func (t *PriorityTable) adopt(src *PriorityTable) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.usage = src.usage
	t.lastDecay = src.lastDecay
	t.now = src.now
	t.halfLife = src.halfLife
}

// tableState is a PriorityTable's form in a usage-ledger snapshot.
// Matches are introductions and deliberately not durable (the
// stateless-matchmaker property); usage history, by contrast, is
// advisory accounting worth carrying across pool-manager restarts so
// that fairness has memory.
type tableState struct {
	Usage    map[string]float64 `json:"usage"`
	Now      float64            `json:"now"`
	HalfLife float64            `json:"half_life"`
}

// MarshalJSON serializes the table with decay folded in, so the saved
// usage figures are current as of Now.
func (t *PriorityTable) MarshalJSON() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	state := tableState{
		Usage:    make(map[string]float64, len(t.usage)),
		Now:      t.now,
		HalfLife: t.halfLife,
	}
	for c := range t.usage {
		t.decayLocked(c)
		state.Usage[c] = t.usage[c]
	}
	return json.Marshal(state)
}

// UnmarshalJSON restores a saved table, replacing the receiver's
// contents.
func (t *PriorityTable) UnmarshalJSON(data []byte) error {
	var state tableState
	if err := json.Unmarshal(data, &state); err != nil {
		return fmt.Errorf("matchmaker: bad priority table: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.usage = make(map[string]float64, len(state.Usage))
	t.lastDecay = make(map[string]float64, len(state.Usage))
	for c, u := range state.Usage {
		t.usage[c] = u
		t.lastDecay[c] = state.Now
	}
	t.now = state.Now
	if state.HalfLife != 0 || len(state.Usage) > 0 {
		t.halfLife = state.HalfLife
	}
	return nil
}
