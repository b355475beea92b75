package pool

// Event-driven pool management: the loop that runs the manager's
// negotiation cycle when the collector store's change feed says
// something changed, instead of on a fixed timer. It is the same cycle
// RunCycle runs (Manager.cycle, driver.go) — the loop only decides
// when. Steady-state heartbeats (content-identical re-advertisements)
// publish no delta and cost no negotiation at all; a configurable
// fallback timer still forces a periodic full rebuild, which is the
// safety net for anything the delta path could ever lose (and the
// recovery path for notification failures).
//
// Lease/epoch semantics are the cycle's own: an HA-enrolled manager
// acquires the leadership lease before each wake and stamps its epoch
// into every MATCH; a wake without the lease matches nothing and is
// retried shortly.

import (
	"context"
	"sync"
	"time"

	"repro/internal/matchmaker"
)

// DefaultFallback is the default full-rebuild fallback period.
const DefaultFallback = 300 * time.Second

// standbyRetryDelay paces wake attempts while another negotiator holds
// the leadership lease (the engine keeps its pending work meanwhile).
const standbyRetryDelay = time.Second

// notifyRetryDelay schedules a rebuild after a wake left notification
// errors behind, so an unreachable party is retried well before the
// fallback period.
const notifyRetryDelay = 5 * time.Second

// EventLoop drives a Manager's negotiation cycle from the store's
// change feed. Construct with Manager.StartEvents, drive with Run
// (daemons) or Wake (tests and simulations), stop with Stop. The engine
// and its subscription belong to the Manager: stopping the loop leaves
// both in place, and RunCycle keeps working.
type EventLoop struct {
	m        *Manager
	fallback time.Duration
	done     chan struct{}
	wg       sync.WaitGroup

	mu        sync.Mutex
	fallbacks int // fallback rebuilds requested so far
}

// StartEvents seeds the negotiation engine with the current ad pool
// (if no cycle has yet) and starts pumping the store's change feed
// into it, so Engine().NeedsWake() turns true when an ad changed.
// fallback is Run's full-rebuild period (<= 0 selects
// DefaultFallback). The caller owns the returned loop and must Stop it.
func (m *Manager) StartEvents(fallback time.Duration) *EventLoop {
	if fallback <= 0 {
		fallback = DefaultFallback
	}
	el := &EventLoop{m: m, fallback: fallback, done: make(chan struct{})}
	m.local.drain(m.negotiator.eng)
	el.wg.Add(1)
	go el.pump()
	return el
}

// Engine exposes the negotiation engine (tests, metrics).
func (el *EventLoop) Engine() *matchmaker.Incremental { return el.m.negotiator.eng }

// Fallbacks reports how many fallback full rebuilds Run has requested.
func (el *EventLoop) Fallbacks() int {
	el.mu.Lock()
	defer el.mu.Unlock()
	return el.fallbacks
}

// pump moves store deltas into the engine as they are published, until
// the loop stops or the manager closes the subscription. It feeds
// through the same serialised step a cycle uses, so it can never apply
// a batch out of order with one.
func (el *EventLoop) pump() {
	defer el.wg.Done()
	ready := el.m.local.ready()
	for {
		select {
		case _, open := <-ready:
			if !open {
				return
			}
			el.m.local.drain(el.m.negotiator.eng)
		case <-el.done:
			return
		}
	}
}

// Stop ends the pump and unblocks Run. The manager's engine and
// subscription stay as they are.
func (el *EventLoop) Stop() {
	select {
	case <-el.done:
		return // already stopped
	default:
	}
	close(el.done)
	el.wg.Wait()
}

// Run executes wakes whenever the engine needs matchmaking — an ad
// changed, the fallback period elapsed, or a retry came due — until ctx
// is cancelled or the loop is stopped. Standby wakes (HA, lease held
// elsewhere) and notification failures are retried on their own
// delays, as forced rebuilds.
func (el *EventLoop) Run(ctx context.Context) {
	stop := context.AfterFunc(ctx, el.Stop)
	defer stop()
	eng := el.m.negotiator.eng
	fallback := time.NewTicker(el.fallback)
	defer fallback.Stop()
	var retry <-chan time.Time
	for {
		select {
		case <-el.done:
			return
		case <-eng.Ready():
		case <-fallback.C:
			el.mu.Lock()
			el.fallbacks++
			el.mu.Unlock()
			eng.MarkAllDirty()
		case <-retry:
			retry = nil
			eng.MarkAllDirty()
		}
		if !eng.NeedsWake() {
			continue // a stale token: an earlier wake already served it
		}
		switch res, _ := el.Wake(); {
		case res.Standby:
			// The lease holder negotiates; look again shortly.
			retry = time.After(standbyRetryDelay)
		case len(res.Errors) > 0:
			// An unreachable party keeps its match in the engine; a
			// forced rebuild re-derives and re-notifies it.
			retry = time.After(notifyRetryDelay)
		default:
			retry = nil
		}
	}
}

// Wake runs one negotiation cycle now, exactly as RunCycle does, and
// also reports the engine's work for the wake.
func (el *EventLoop) Wake() (CycleResult, matchmaker.WakeStats) {
	return el.m.cycle()
}
