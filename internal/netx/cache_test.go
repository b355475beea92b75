package netx

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lineServer answers each line it reads with the same line, until the
// peer closes. It counts the connections it accepted and the ones that
// ended, which is how the tests observe the client's cache.
type lineServer struct {
	ln       net.Listener
	accepted atomic.Int64
	ended    atomic.Int64
	// serve, when set, replaces the echo loop for one connection.
	serve func(conn net.Conn, r *bufio.Reader)
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func newLineServer(t *testing.T, serve func(net.Conn, *bufio.Reader)) *lineServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &lineServer{ln: ln, serve: serve}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepted.Add(1)
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer s.ended.Add(1)
				defer conn.Close()
				r := bufio.NewReader(conn)
				if s.serve != nil {
					s.serve(conn, r)
					return
				}
				echo(conn, r)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.mu.Lock()
		for _, c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return s
}

func echo(conn net.Conn, r *bufio.Reader) {
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		if _, err := conn.Write([]byte(line)); err != nil {
			return
		}
	}
}

func (s *lineServer) addr() string { return s.ln.Addr().String() }

// waitEnded polls until the server has seen n connections end.
func (s *lineServer) waitEnded(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.ended.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("server saw %d connections end, want %d", s.ended.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// ping is a one-envelope conversation: one line out, the echo back.
func ping(c *Conn) error {
	if _, err := c.Write([]byte("ping\n")); err != nil {
		return err
	}
	line, err := c.Reader().ReadString('\n')
	if err != nil {
		return err
	}
	if line != "ping\n" {
		return fmt.Errorf("reply %q", line)
	}
	return nil
}

func TestDoReusesConnection(t *testing.T) {
	s := newLineServer(t, nil)
	d := &Dialer{}
	t.Cleanup(d.CloseIdle)
	for i := 0; i < 5; i++ {
		if err := d.Do(s.addr(), 0, false, ping); err != nil {
			t.Fatalf("conversation %d: %v", i, err)
		}
	}
	if got := s.accepted.Load(); got != 1 {
		t.Fatalf("accepted %d connections for 5 conversations, want 1", got)
	}
	if d.nIdle != 1 {
		t.Fatalf("idle connections = %d, want 1", d.nIdle)
	}
	d.CloseIdle()
	s.waitEnded(t, 1)
	if d.nIdle != 0 {
		t.Fatalf("idle connections after CloseIdle = %d", d.nIdle)
	}
}

// A cached connection the peer dropped while it sat idle: an
// idempotent conversation redials once at once, and only once; a
// CLAIM-like one gets the error and no redial.
func TestDoRedialsStaleConnectionOnce(t *testing.T) {
	var served atomic.Int64
	s := newLineServer(t, func(conn net.Conn, r *bufio.Reader) {
		// The first connection answers one line and hangs up; every
		// later one is hung up on unread.
		if served.Add(1) == 1 {
			line, err := r.ReadString('\n')
			if err == nil {
				conn.Write([]byte(line))
			}
		}
	})
	d := &Dialer{}
	t.Cleanup(d.CloseIdle)
	if err := d.Do(s.addr(), 0, true, ping); err != nil {
		t.Fatal(err)
	}
	s.waitEnded(t, 1) // the cached connection is dead now

	err := d.Do(s.addr(), 0, true, ping)
	if err == nil {
		t.Fatal("replayed conversation succeeded against a server that hangs up")
	}
	if got := s.accepted.Load(); got != 2 {
		t.Fatalf("accepted %d connections, want 2: the stale one and exactly one redial", got)
	}

	// Not replayable: the stale connection's error is the answer.
	if err := d.Do(s.addr(), 0, true, func(*Conn) error { return nil }); err != nil {
		t.Fatal(err) // caches a fresh connection (3rd accept)
	}
	s.waitEnded(t, 3)
	if err := d.Do(s.addr(), 0, false, ping); err == nil {
		t.Fatal("non-replayable conversation on a dead connection succeeded")
	}
	if got := s.accepted.Load(); got != 3 {
		t.Fatalf("accepted %d connections, want 3: a non-replayable conversation never redials", got)
	}
}

// A replayed conversation succeeds when only the cached connection was
// stale.
func TestDoReplaysOnFreshConnection(t *testing.T) {
	var served atomic.Int64
	s := newLineServer(t, func(conn net.Conn, r *bufio.Reader) {
		if served.Add(1) == 1 {
			line, err := r.ReadString('\n')
			if err == nil {
				conn.Write([]byte(line))
			}
			return // hang up after one line
		}
		echo(conn, r)
	})
	d := &Dialer{}
	t.Cleanup(d.CloseIdle)
	if err := d.Do(s.addr(), 0, true, ping); err != nil {
		t.Fatal(err)
	}
	s.waitEnded(t, 1)
	if err := d.Do(s.addr(), 0, true, ping); err != nil {
		t.Fatalf("replay on a fresh connection: %v", err)
	}
	if got := s.accepted.Load(); got != 2 {
		t.Fatalf("accepted %d, want 2", got)
	}
}

func TestDoExpiresIdleConnections(t *testing.T) {
	a := newLineServer(t, nil)
	b := newLineServer(t, nil)
	now := time.Unix(1_000_000, 0)
	d := &Dialer{clock: func() time.Time { return now }}
	t.Cleanup(d.CloseIdle)
	if err := d.Do(a.addr(), 0, false, ping); err != nil {
		t.Fatal(err)
	}
	if err := d.Do(b.addr(), 0, false, ping); err != nil {
		t.Fatal(err)
	}
	// Just inside the window the connection is reused.
	now = now.Add(IdleConnTimeout - time.Second)
	if err := d.Do(a.addr(), 0, false, ping); err != nil {
		t.Fatal(err)
	}
	if got := a.accepted.Load(); got != 1 {
		t.Fatalf("accepted %d inside the idle window, want 1", got)
	}
	// Past it, a conversation with a dials afresh, the expired
	// connection is closed, and so is b's, which nobody asked for.
	now = now.Add(IdleConnTimeout)
	if err := d.Do(a.addr(), 0, false, ping); err != nil {
		t.Fatal(err)
	}
	if got := a.accepted.Load(); got != 2 {
		t.Fatalf("accepted %d after expiry, want 2", got)
	}
	a.waitEnded(t, 1)
	b.waitEnded(t, 1)
	if d.nIdle != 1 {
		t.Fatalf("idle connections = %d, want 1 (a's new one)", d.nIdle)
	}
}

// concurrently runs n conversations with addr at once: each holds its
// connection until all n have one, so they cannot share.
func concurrently(t *testing.T, d *Dialer, addr string, n int) {
	t.Helper()
	var started sync.WaitGroup
	started.Add(n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			errs <- d.Do(addr, 0, false, func(c *Conn) error {
				started.Done()
				started.Wait()
				return ping(c)
			})
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDoConcurrentCallersGetDistinctConnections(t *testing.T) {
	s := newLineServer(t, nil)
	d := &Dialer{}
	t.Cleanup(d.CloseIdle)
	concurrently(t, d, s.addr(), 4)
	if got := s.accepted.Load(); got != 4 {
		t.Fatalf("accepted %d for 4 concurrent conversations, want 4", got)
	}
	// All four are cached and serve four more at once.
	concurrently(t, d, s.addr(), 4)
	if got := s.accepted.Load(); got != 4 {
		t.Fatalf("accepted %d after a second round, want 4", got)
	}
}

func TestDoBoundsIdleConnections(t *testing.T) {
	d := &Dialer{}
	t.Cleanup(d.CloseIdle)
	// Per address: two conversations past the bound leave two
	// connections closed rather than cached.
	first := newLineServer(t, nil)
	concurrently(t, d, first.addr(), MaxIdleConnsPerAddr+2)
	first.waitEnded(t, 2)
	if d.nIdle != MaxIdleConnsPerAddr {
		t.Fatalf("idle = %d after %d concurrent conversations, want the per-address bound %d",
			d.nIdle, MaxIdleConnsPerAddr+2, MaxIdleConnsPerAddr)
	}
	// In all: fill the cache to its bound, then one more address's
	// connection is closed instead of cached.
	for d.nIdle < MaxIdleConns {
		concurrently(t, d, newLineServer(t, nil).addr(), min(MaxIdleConnsPerAddr, MaxIdleConns-d.nIdle))
	}
	last := newLineServer(t, nil)
	if err := d.Do(last.addr(), 0, false, ping); err != nil {
		t.Fatal(err)
	}
	last.waitEnded(t, 1)
	if d.nIdle != MaxIdleConns || idleConns.Load() < MaxIdleConns {
		t.Fatalf("idle = %d (gauge %d), want the total bound %d", d.nIdle, idleConns.Load(), MaxIdleConns)
	}
}

// A DialFunc's wrapping, here the fault injector, covers cached
// connections and the redial alike.
func TestDoCachedConnectionsStayWrapped(t *testing.T) {
	s := newLineServer(t, nil)
	faults := NewFaults(FaultPlan{Seed: 1, Reset: 1})
	faults.SetEnabled(false)
	d := &Dialer{DialFunc: func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return faults.Conn(conn), nil
	}}
	t.Cleanup(d.CloseIdle)
	if err := d.Do(s.addr(), 0, true, ping); err != nil {
		t.Fatal(err)
	}
	faults.SetEnabled(true)
	err := d.Do(s.addr(), 0, true, ping)
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v, want the injected reset", err)
	}
	if got := faults.Stats().Resets; got != 2 {
		t.Fatalf("injected resets = %d, want 2: the cached connection and the redial", got)
	}
	// The redial reset itself before the server got round to accepting.
	s.waitEnded(t, 2)
}

// A conversation's absolute deadline does not follow its connection
// into the cache.
func TestDoClearsAbsoluteDeadline(t *testing.T) {
	s := newLineServer(t, nil)
	d := &Dialer{IOTimeout: -1} // no per-operation deadlines to mask it
	t.Cleanup(d.CloseIdle)
	if err := d.Do(s.addr(), 30*time.Millisecond, false, ping); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := d.Do(s.addr(), 0, false, ping); err != nil {
		t.Fatalf("reused connection kept the expired deadline: %v", err)
	}
	if got := s.accepted.Load(); got != 1 {
		t.Fatalf("accepted %d, want 1", got)
	}
}

// A connection whose conversation failed, or left a reply unread, is
// closed rather than cached.
func TestDoCachesOnlyCleanConnections(t *testing.T) {
	s := newLineServer(t, func(conn net.Conn, r *bufio.Reader) {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			// Two replies per line: the second is left unread.
			if _, err := conn.Write([]byte(line + line)); err != nil {
				return
			}
		}
	})
	d := &Dialer{}
	t.Cleanup(d.CloseIdle)
	if err := d.Do(s.addr(), 0, false, func(c *Conn) error {
		if err := ping(c); err != nil {
			return err
		}
		// Wait for the second reply to arrive in the buffer.
		_, err := c.Reader().Peek(1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s.waitEnded(t, 1)
	boom := errors.New("boom")
	if err := d.Do(s.addr(), 0, false, func(*Conn) error { return boom }); err != boom {
		t.Fatalf("err = %v, want fn's own error", err)
	}
	s.waitEnded(t, 2)
	if d.nIdle != 0 {
		t.Fatalf("idle = %d, want 0", d.nIdle)
	}
}

func TestDoTotalBoundsWholeConversation(t *testing.T) {
	s := newLineServer(t, func(conn net.Conn, r *bufio.Reader) {
		// Read the request, never answer, wait for the hang-up.
		r.ReadString('\n')
		r.ReadString('\n')
	})
	d := &Dialer{}
	start := time.Now()
	err := d.Do(s.addr(), 60*time.Millisecond, false, func(c *Conn) error {
		if _, err := c.Write([]byte("claim\n")); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Reader().ReadString('\n'); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("conversation outlived its absolute deadline: %v", elapsed)
	}
	if d.nIdle != 0 {
		t.Fatal("a timed-out connection was cached")
	}
}

func TestDoDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	called := false
	err = (&Dialer{}).Do(addr, 0, true, func(*Conn) error { called = true; return nil })
	if err == nil || called || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("err = %v, fn called %v; want a refused dial and no conversation", err, called)
	}
}
