package netx

import (
	"bufio"
	"errors"
	"net"
	"os"
	"sync/atomic"
	"time"
)

// The connection cache. A pool's agents talk to the same few peers
// again and again — heartbeats to the collector, the manager's MATCH
// to both parties, the CA's CLAIM and RELEASE to the RA — and every
// server already loops over envelopes on one connection. So a Dialer
// keeps the connections its conversations leave behind and lends them
// to the next conversation with the same address (Do): no handshake, no
// new handler goroutine on the far side, per envelope.
const (
	// IdleConnTimeout is how long a connection may sit in the cache
	// unused. It is shorter than the servers' DefaultIdleTimeout, so a
	// client normally drops a connection before the server closes it.
	IdleConnTimeout = 60 * time.Second
	// MaxIdleConnsPerAddr bounds the idle connections kept for one
	// address: as many as conversations with it ran at once, up to
	// this.
	MaxIdleConnsPerAddr = 8
	// MaxIdleConns bounds the idle connections one Dialer keeps. A
	// connection returned past either bound is closed instead.
	MaxIdleConns = 256
)

// idleConns counts the idle connections of every Dialer in the process
// (the netx_idle_conns gauge).
var idleConns atomic.Int64

// Conn is one end of a conversation: the connection Do lends a client,
// or the one a Server hands its handler. Envelopes are written to it
// and read from Reader, whose buffer lives as long as the connection.
// Every operation carries a deadline: a client's per-operation
// IOTimeout or the one absolute deadline Do was given, a server's idle
// timeout for reads and DefaultIOTimeout for writes.
type Conn struct {
	nc              net.Conn
	r               *bufio.Reader
	readTO, writeTO time.Duration // per-operation deadlines; 0 for none, or under an absolute one
	received        int           // bytes the current conversation has read
	since           time.Time     // when the connection went idle in a Dialer's cache
	// parked is when a Server's handler began waiting for the next
	// envelope (Unix nanoseconds), 0 while it dispatches one.
	parked atomic.Int64
}

func newConn(nc net.Conn) *Conn {
	c := &Conn{nc: nc}
	c.r = bufio.NewReader(readFunc(c.read))
	return c
}

// readFunc adapts a method to io.Reader, so the bufio.Reader reads
// through the Conn's deadline and byte accounting.
type readFunc func([]byte) (int, error)

func (f readFunc) Read(p []byte) (int, error) { return f(p) }

// Reader returns the connection's buffered reader.
func (c *Conn) Reader() *bufio.Reader { return c.r }

// Write sends p under the conversation's deadline.
func (c *Conn) Write(p []byte) (int, error) {
	if c.writeTO > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.writeTO)); err != nil { //determguard:ok kernel socket deadlines are wall-clock by definition
			return 0, err
		}
	}
	n, err := c.nc.Write(p)
	countExpiry(err)
	return n, err
}

func (c *Conn) read(p []byte) (int, error) {
	if c.readTO > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(c.readTO)); err != nil { //determguard:ok kernel socket deadlines are wall-clock by definition
			return 0, err
		}
	}
	n, err := c.nc.Read(p)
	c.received += n
	countExpiry(err)
	return n, err
}

// countExpiry counts an operation that ended at its deadline.
func countExpiry(err error) {
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		metrics().deadlineExpiries.Inc()
	}
}

// Do runs one conversation with addr — fn writes envelopes to the
// connection and reads the replies from its Reader — on an idle
// connection from the cache, or on a new one when none is idle.
// total > 0 bounds the whole conversation by one absolute deadline, the
// shape the claiming protocol needs however many rounds its handshake
// takes; otherwise each read and write gets the per-operation deadline.
//
// The connection goes back to the cache only when fn succeeded and
// left no unread bytes behind; anything else closes it. A cached
// connection may have died while idle (the peer restarted, or closed
// it after its own idle timeout). When that shows before the first
// byte of a reply and replayable says the exchange is idempotent
// (protocol.Idempotent), Do dials once more at once and runs fn again.
// A conversation that is not replayable gets the error, as it would
// from a failed dial.
func (d *Dialer) Do(addr string, total time.Duration, replayable bool, fn func(*Conn) error) error {
	var deadline time.Time
	if total > 0 {
		deadline = time.Now().Add(total) //determguard:ok only the connection's own deadline reads it, and an in-process connection ignores deadlines
	}
	if c := d.take(addr); c != nil {
		err := d.converse(addr, c, deadline, fn)
		if err == nil || !replayable || c.received > 0 {
			return err
		}
	}
	nc, err := d.dialRaw(addr)
	if err != nil {
		return err
	}
	return d.converse(addr, newConn(nc), deadline, fn)
}

// converse runs fn on c under the conversation's deadline, then caches
// or closes c.
func (d *Dialer) converse(addr string, c *Conn, deadline time.Time, fn func(*Conn) error) error {
	c.received, c.readTO, c.writeTO = 0, 0, 0
	if !deadline.IsZero() {
		if err := c.nc.SetDeadline(deadline); err != nil {
			c.nc.Close()
			return err
		}
	} else if io := d.ioTimeout(); io > 0 {
		c.readTO, c.writeTO = io, io
	}
	err := fn(c)
	if err == nil && c.r.Buffered() == 0 &&
		(deadline.IsZero() || c.nc.SetDeadline(time.Time{}) == nil) {
		d.put(addr, c)
		return nil
	}
	c.nc.Close()
	return err
}

func (d *Dialer) now() time.Time {
	if d.clock != nil {
		return d.clock()
	}
	return time.Now() //determguard:ok the wall-clock default; a Transport's dialer injects a clock that never moves
}

// take lends out addr's most recently used idle connection, or nil.
func (d *Dialer) take(addr string) *Conn {
	now := d.now()
	d.mu.Lock()
	dead := d.expireLocked(addr, now)
	var c *Conn
	if list := d.idle[addr]; len(list) > 0 {
		c = list[len(list)-1]
		list[len(list)-1] = nil
		d.setIdleLocked(addr, list[:len(list)-1])
	}
	d.mu.Unlock()
	closeConns(dead)
	if c != nil {
		metrics().reuses.Inc()
	}
	return c
}

// put returns c to the cache, or closes it past a bound.
func (d *Dialer) put(addr string, c *Conn) {
	now := d.now()
	c.since = now
	d.mu.Lock()
	dead := d.expireLocked(addr, now)
	list := d.idle[addr]
	kept := len(list) < MaxIdleConnsPerAddr && d.nIdle < MaxIdleConns
	if kept {
		d.setIdleLocked(addr, append(list, c))
	}
	d.mu.Unlock()
	if !kept {
		dead = append(dead, c)
	}
	closeConns(dead)
}

// CloseIdle closes every idle connection in the cache. Connections lent
// to a running conversation are not touched.
func (d *Dialer) CloseIdle() {
	d.mu.Lock()
	var dead []*Conn
	for addr, list := range d.idle {
		dead = append(dead, list...)
		d.setIdleLocked(addr, nil)
	}
	d.mu.Unlock()
	closeConns(dead)
}

// expireLocked removes the connections idle for IdleConnTimeout or
// longer: addr's on every call, every address's once a quarter of the
// timeout has passed since the last sweep, so an address nobody calls
// again does not keep its connections. It returns them for closing
// outside the lock.
func (d *Dialer) expireLocked(addr string, now time.Time) []*Conn {
	var dead []*Conn
	if now.Before(d.nextSweep) {
		return d.trimLocked(addr, now, dead)
	}
	d.nextSweep = now.Add(IdleConnTimeout / 4)
	for a := range d.idle {
		dead = d.trimLocked(a, now, dead)
	}
	return dead
}

// trimLocked moves addr's expired connections onto dead. A list runs
// from the longest idle to the most recently returned.
func (d *Dialer) trimLocked(addr string, now time.Time, dead []*Conn) []*Conn {
	list := d.idle[addr]
	i := 0
	for i < len(list) && now.Sub(list[i].since) >= IdleConnTimeout {
		i++
	}
	if i == 0 {
		return dead
	}
	dead = append(dead, list[:i]...)
	n := copy(list, list[i:])
	clear(list[n:])
	d.setIdleLocked(addr, list[:n])
	return dead
}

// setIdleLocked replaces addr's idle list and keeps the counts.
func (d *Dialer) setIdleLocked(addr string, list []*Conn) {
	delta := len(list) - len(d.idle[addr])
	d.nIdle += delta
	idleConns.Add(int64(delta))
	if len(list) == 0 {
		delete(d.idle, addr)
		return
	}
	if d.idle == nil {
		d.idle = make(map[string][]*Conn)
	}
	d.idle[addr] = list
}

func closeConns(cs []*Conn) {
	for _, c := range cs {
		c.nc.Close()
	}
}
