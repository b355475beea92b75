package netx

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjectedReset is returned by a FaultConn operation that the fault
// plan chose to reset.
var ErrInjectedReset = errors.New("netx: injected connection reset")

// FaultPlan describes a deterministic fault distribution. All
// probabilities are in [0, 1]; the Seed makes the resulting fault
// sequence reproducible, so a chaos run that fails can be replayed.
type FaultPlan struct {
	// Seed drives the fault RNG; 0 behaves like 1.
	Seed int64
	// Drop is the probability that a connection is severed as soon as
	// it is accepted (or dialed, when wrapping the client side): the
	// peer sees a reset on its first I/O.
	Drop float64
	// Reset is the per-operation probability that a read or write
	// kills the connection mid-flight.
	Reset float64
	// Delay is the per-operation probability of stalling for
	// DelayTime before the operation proceeds.
	Delay float64
	// DelayTime is the injected stall length (default 1ms when Delay
	// is set but DelayTime is not).
	DelayTime time.Duration
	// Garble is the per-read probability of corrupting one byte of
	// the data delivered to the reader.
	Garble float64
}

// FaultStats counts the faults actually injected.
type FaultStats struct {
	Drops, Resets, Delays, Garbles int
}

// Faults is a live fault injector shared by any number of listeners
// and connections. It is safe for concurrent use; the seeded RNG is
// serialized so the fault distribution is reproducible.
type Faults struct {
	plan FaultPlan

	mu      sync.Mutex
	rng     *pcg
	enabled bool
	stats   FaultStats
}

// NewFaults builds an injector for plan, initially enabled.
func NewFaults(plan FaultPlan) *Faults {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	if plan.Delay > 0 && plan.DelayTime <= 0 {
		plan.DelayTime = time.Millisecond
	}
	return &Faults{plan: plan, rng: newPCG(uint64(seed)), enabled: true}
}

// SetEnabled turns injection on or off; a disabled injector passes
// everything through untouched, which lets a chaos test end with a
// clean convergence phase.
func (f *Faults) SetEnabled(on bool) {
	f.mu.Lock()
	f.enabled = on
	f.mu.Unlock()
}

// Stats reports how many faults have been injected so far.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// roll decides one fault with probability p and records it in the
// given counter when it fires.
func (f *Faults) roll(p float64, counter *int) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.enabled {
		return false
	}
	if f.rng.float64() >= p {
		return false
	}
	*counter++
	return true
}

// pick returns a deterministic index in [0, n).
func (f *Faults) pick(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(f.rng.uint64() % uint64(n))
}

// Listener wraps ln so accepted connections pass through the
// injector: some are dropped outright, the rest become FaultConns.
func (f *Faults) Listener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, f: f}
}

type faultListener struct {
	net.Listener
	f *Faults
}

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.f.roll(l.f.plan.Drop, &l.f.statsRef().Drops) {
			abort(conn)
			continue
		}
		return l.f.Conn(conn), nil
	}
}

// statsRef gives roll a stable counter address. Callers must not hold
// f.mu (roll takes it).
func (f *Faults) statsRef() *FaultStats { return &f.stats }

// Conn wraps c in the injector. It is also usable on the dial side
// (wrapping what a Dialer.DialFunc returns), where Drop fires at wrap
// time.
func (f *Faults) Conn(c net.Conn) net.Conn {
	return &FaultConn{Conn: c, f: f}
}

// FaultConn injects the plan's per-operation faults into one
// connection.
type FaultConn struct {
	net.Conn
	f *Faults
}

func (c *FaultConn) Read(p []byte) (int, error) {
	f := c.f
	if f.roll(f.plan.Delay, &f.statsRef().Delays) {
		time.Sleep(f.plan.DelayTime)
	}
	if f.roll(f.plan.Reset, &f.statsRef().Resets) {
		abort(c.Conn)
		return 0, ErrInjectedReset
	}
	n, err := c.Conn.Read(p)
	if n > 0 && f.roll(f.plan.Garble, &f.statsRef().Garbles) {
		p[f.pick(n)] ^= 0xFF
	}
	return n, err
}

func (c *FaultConn) Write(p []byte) (int, error) {
	f := c.f
	if f.roll(f.plan.Delay, &f.statsRef().Delays) {
		time.Sleep(f.plan.DelayTime) //determguard:ok injected latency on a real socket is wall-clock by design; the checker schedules actions itself, not through FaultConn
	}
	if f.roll(f.plan.Reset, &f.statsRef().Resets) {
		abort(c.Conn)
		return 0, ErrInjectedReset
	}
	return c.Conn.Write(p)
}

// abort closes a connection so the peer observes a hard reset (RST)
// rather than an orderly close, the shape real crashes have.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// pcg is a tiny deterministic PRNG (PCG-XSH-RR) so fault sequences do
// not depend on math/rand's generator evolving across Go releases.
type pcg struct{ state uint64 }

func newPCG(seed uint64) *pcg {
	p := &pcg{state: seed + 0x9E3779B97F4A7C15}
	p.uint64()
	return p
}

func (p *pcg) uint64() uint64 {
	p.state = p.state*6364136223846793005 + 1442695040888963407
	x := p.state
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

func (p *pcg) float64() float64 {
	return float64(p.uint64()>>11) / (1 << 53)
}
