// The cross-file half of the invariant: the dial is buried in a
// helper declared in crossfile_helper.go. The old single-file matcher
// could not see through the call; the typed call graph follows it and
// names both the helper and the blocking operation it performs.
package lockguard

import "sync"

type registrar struct {
	mu sync.Mutex
}

func (r *registrar) register() {
	r.mu.Lock()
	defer r.mu.Unlock()
	helperDial() // want "call to helperDial, which performs net\\.Dial, while r\\.mu is held"
}

// registerIndirect blocks two hops away: the helper's own callee
// dials. The summary is transitive within the package.
func (r *registrar) registerIndirect() {
	r.mu.Lock()
	defer r.mu.Unlock()
	helperIndirect() // want "call to helperIndirect, which performs net\\.Dial, while r\\.mu is held"
}

// registerWaived documents why the blocking call is acceptable.
func (r *registrar) registerWaived() {
	r.mu.Lock()
	defer r.mu.Unlock()
	helperDial() //lockguard:ok startup path, no contenders yet
}

// registerUnlocked is fine: the helper runs after the lock is gone.
func (r *registrar) registerUnlocked() {
	r.mu.Lock()
	r.mu.Unlock()
	helperDial()
}

// registerVia blocks through an interface: the caller cannot tell which
// implementation it reaches, so the blocking one is named.
func (r *registrar) registerVia(n notifier) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n.notify() // want "call to notify \\(netNotifier\\.notify\\), which performs net\\.Dial, while r\\.mu is held"
}

// registerViaHelper reaches the interface call one hop away.
func (r *registrar) registerViaHelper(n notifier) {
	r.mu.Lock()
	defer r.mu.Unlock()
	helperNotify(n) // want "call to helperNotify, which performs net\\.Dial, while r\\.mu is held"
}

// countLocked is fine: no implementation of counter blocks.
func (r *registrar) countLocked(c counter) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return c.count()
}
