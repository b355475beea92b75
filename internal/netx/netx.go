// Package netx is the failure substrate under the matchmaking wire
// protocols: bounded dials, per-envelope I/O deadlines, and capped
// exponential retry with jitter. The paper's robustness story (§3.2,
// §4.3) assumes agents that outlive transient peer failure — ads
// expire when not refreshed, claims are re-verified against current
// state — but that only works if no single round-trip can block an
// agent forever. Every daemon dial and serve loop goes through this
// package so a hung collector or dead provider degrades into a
// bounded, retried error instead of a wedged goroutine. Daemons run
// their conversations on cached connections (Dialer.Do), one per
// peer rather than one per envelope.
//
// The package also provides deterministic fault injection
// (FaultPlan/Faults, fault.go) so tests can subject the real daemons
// to drops, delays, resets and corruption without touching daemon
// code.
package netx

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Default timeouts. Generous for a LAN pool; daemons expose fields to
// tighten them (tests and simulations run with millisecond values).
const (
	// DefaultConnectTimeout bounds TCP connection establishment.
	DefaultConnectTimeout = 5 * time.Second
	// DefaultIOTimeout bounds each envelope read or write on a dialed
	// connection.
	DefaultIOTimeout = 10 * time.Second
	// DefaultIdleTimeout bounds how long a server-side handler waits
	// for the next envelope before concluding the peer is wedged.
	DefaultIdleTimeout = 2 * time.Minute
)

// Dialer dials TCP peers with a connect timeout and returns
// connections whose every Read and Write carries a fresh deadline, so
// a peer that stops mid-conversation produces a timeout error rather
// than a stuck goroutine. Do runs a conversation on a connection from
// the Dialer's own cache of idle ones (cache.go).
type Dialer struct {
	// ConnectTimeout bounds connection establishment; 0 selects
	// DefaultConnectTimeout.
	ConnectTimeout time.Duration
	// IOTimeout is the per-operation read/write deadline; 0 selects
	// DefaultIOTimeout, negative disables deadlines.
	IOTimeout time.Duration
	// Wrap, when set, wraps every dialed connection — the seam tests
	// use to inject client-side faults (see Faults.Conn). Cached
	// connections stay wrapped.
	Wrap func(net.Conn) net.Conn

	// The idle connections Do keeps, per address (cache.go).
	mu        sync.Mutex
	idle      map[string][]*Conn
	nIdle     int
	nextSweep time.Time
	// clock replaces time.Now for the cache's idle accounting in tests.
	clock func() time.Time
}

// DefaultDialer is the dialer used when a component's Dialer field is
// nil.
var DefaultDialer = &Dialer{}

func (d *Dialer) connectTimeout() time.Duration {
	if d.ConnectTimeout > 0 {
		return d.ConnectTimeout
	}
	return DefaultConnectTimeout
}

func (d *Dialer) ioTimeout() time.Duration {
	if d.IOTimeout != 0 {
		return d.IOTimeout
	}
	return DefaultIOTimeout
}

func (d *Dialer) dialRaw(addr string) (net.Conn, error) {
	m := metrics()
	m.dials.Inc()
	conn, err := net.DialTimeout("tcp", addr, d.connectTimeout())
	if err != nil {
		m.dialErrors.Inc()
		return nil, err
	}
	if d.Wrap != nil {
		conn = d.Wrap(conn)
	}
	return conn, nil
}

// Dial connects to addr and arms per-operation deadlines on the
// returned connection.
func (d *Dialer) Dial(addr string) (net.Conn, error) {
	conn, err := d.dialRaw(addr)
	if err != nil {
		return nil, err
	}
	if io := d.ioTimeout(); io > 0 {
		conn = TimeoutConn(conn, io, io)
	}
	return conn, nil
}

// timeoutConn arms a fresh deadline before every Read and Write.
type timeoutConn struct {
	net.Conn
	read, write time.Duration
}

// TimeoutConn wraps c so each Read is bounded by read and each Write
// by write (0 disables that side). Servers wrap accepted connections
// with it so an idle or wedged peer cannot pin a handler goroutine.
func TimeoutConn(c net.Conn, read, write time.Duration) net.Conn {
	if read <= 0 && write <= 0 {
		return c
	}
	return &timeoutConn{Conn: c, read: read, write: write}
}

func (c *timeoutConn) Read(p []byte) (int, error) {
	if c.read > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.read)); err != nil {
			return 0, err
		}
	}
	n, err := c.Conn.Read(p)
	countExpiry(err)
	return n, err
}

func (c *timeoutConn) Write(p []byte) (int, error) {
	if c.write > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.write)); err != nil { //determguard:ok kernel socket deadlines are wall-clock by definition
			return 0, err
		}
	}
	n, err := c.Conn.Write(p)
	countExpiry(err)
	return n, err
}

// RetryPolicy describes capped exponential backoff with jitter.
// The zero value selects the defaults below; set Attempts to 1 for a
// single try.
type RetryPolicy struct {
	// Attempts is the total number of tries (not re-tries); <= 0
	// selects 4.
	Attempts int
	// Base is the first backoff delay; 0 selects 50ms.
	Base time.Duration
	// Max caps the backoff delay; 0 selects 2s.
	Max time.Duration
	// Multiplier grows the delay between attempts; <= 1 selects 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized
	// (0 to 1); 0 selects 0.5. The delay becomes
	// d*(1-Jitter/2) + rand*d*Jitter, keeping the mean at d while
	// decorrelating retry storms.
	Jitter float64
	// Seed, when nonzero, makes the jitter sequence deterministic —
	// chaos tests use it so failures reproduce.
	Seed int64
}

func (p RetryPolicy) norm() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.5
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// permanentError marks an error Retry must not retry.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Retry stops immediately and returns the
// underlying error: the caller saw an application-level failure (an
// ERROR envelope, a rejected claim) that retrying cannot fix.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// jitterRand guards the process-wide jitter source used when a policy
// has no Seed.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(1)) // reseeded in init
)

func init() {
	jitterMu.Lock()
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
	jitterMu.Unlock()
}

// Retry runs fn until it succeeds, the policy's attempts are
// exhausted, ctx is done, or fn returns a Permanent error. It returns
// nil on success and the last error otherwise. Only idempotent
// operations should be retried; in the matchmaking protocols those are
// the ones protocol.Idempotent names (see DESIGN.md, "Failure
// semantics").
func Retry(ctx context.Context, p RetryPolicy, fn func() error) error {
	p = p.norm()
	m := metrics()
	var rng *rand.Rand
	if p.Seed != 0 {
		rng = rand.New(rand.NewSource(p.Seed))
	}
	delay := p.Base
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return errors.Join(cerr, err)
			}
			return cerr
		}
		if attempt > 0 {
			m.retries.Inc()
		}
		err = fn()
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if attempt == p.Attempts-1 {
			m.retriesExhausted.Inc()
			break
		}
		sleep := jitteredDelay(delay, p.Jitter, rng)
		m.backoffMillis.Add(sleep.Milliseconds())
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return errors.Join(ctx.Err(), err)
		}
		next := time.Duration(float64(delay) * p.Multiplier)
		if next > p.Max || next < delay { // cap, and guard overflow
			next = p.Max
		}
		delay = next
	}
	return err
}

func jitteredDelay(d time.Duration, jitter float64, rng *rand.Rand) time.Duration {
	var u float64
	if rng != nil {
		u = rng.Float64()
	} else {
		jitterMu.Lock()
		u = jitterRand.Float64()
		jitterMu.Unlock()
	}
	f := 1 - jitter/2 + u*jitter
	return time.Duration(float64(d) * f)
}
