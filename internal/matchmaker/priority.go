package matchmaker

import (
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
}

// Snapshot returns every customer's usage decayed to the table's
// clock, and that clock: the form a negotiator publishes in its
// Negotiator ad, the only durable home of usage.
func (t *PriorityTable) Snapshot() (usage map[string]float64, asOf float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	usage = make(map[string]float64, len(t.usage))
	for c := range t.usage {
		t.decayLocked(c)
		usage[c] = t.usage[c]
	}
	return usage, t.now
}

// Restore replaces the table's usage with a Snapshot taken at asOf
// (read back from the pool by a negotiator taking over); each
// customer decays from asOf from here on. The clock and the half-life
// are the table's own.
func (t *PriorityTable) Restore(usage map[string]float64, asOf float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.usage = make(map[string]float64, len(usage))
	t.lastDecay = make(map[string]float64, len(usage))
	for c, u := range usage {
		t.usage[c] = u
		t.lastDecay[c] = asOf
	}
}
