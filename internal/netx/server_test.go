package netx

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// testClient is one raw connection to a Server under test.
type testClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialTest(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{conn: conn, r: bufio.NewReader(conn)}
}

// send writes one envelope named name.
func (c *testClient) send(t *testing.T, name string) {
	t.Helper()
	if err := protocol.Write(c.conn, &protocol.Envelope{Type: protocol.TypeQuery, Name: name}); err != nil {
		t.Fatal(err)
	}
}

// reply reads one reply within wait, reporting the read error.
func (c *testClient) reply(wait time.Duration) (*protocol.Envelope, error) {
	c.conn.SetReadDeadline(time.Now().Add(wait))
	return protocol.Read(c.r)
}

// waitParked waits until n of the server's live connections are parked
// between envelopes.
func waitParked(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		parked := 0
		for c := range s.live {
			if c.parked.Load() > 0 {
				parked++
			}
		}
		s.mu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections parked, want %d", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerShedsLongestIdleAtCap: past the connection cap the server
// closes the connection parked longest to admit a new one; when every
// connection is mid-dispatch, accept waits until one parks. Close ends
// that wait at once, and leaves no handler behind.
func TestServerShedsLongestIdleAtCap(t *testing.T) {
	defer func(n int) { maxServerConns = n }(maxServerConns)
	maxServerConns = 2
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	handlers := reg.Gauge("test_handlers")

	release, hold := make(chan struct{}), make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, ServerConfig{Name: "test", Logf: t.Logf, Handlers: handlers},
		Dispatch(func(env *protocol.Envelope) *protocol.Envelope {
			switch env.Name {
			case "block":
				<-release
			case "hold":
				<-hold
			}
			return &protocol.Envelope{Type: protocol.TypeAck, Name: env.Name}
		}))
	defer s.Close()
	// Runs before s.Close: a failed check must not leave Close waiting
	// on a handler still blocked.
	unblock := func(ch chan struct{}) {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	defer func() { unblock(release); unblock(hold) }()
	roundTrip := func(c *testClient, name string) {
		t.Helper()
		c.send(t, name)
		if reply, err := c.reply(2 * time.Second); err != nil || reply.Name != name {
			t.Fatalf("reply to %s = %+v, %v", name, reply, err)
		}
	}

	// Shed: a, then b, park; c is admitted in place of a, the longest idle.
	a := dialTest(t, s.Addr())
	roundTrip(a, "a")
	waitParked(t, s, 1)
	b := dialTest(t, s.Addr())
	roundTrip(b, "b")
	waitParked(t, s, 2)
	c := dialTest(t, s.Addr())
	roundTrip(c, "c")
	if _, err := a.reply(2 * time.Second); !errors.Is(err, io.EOF) {
		t.Fatalf("shed connection read = %v, want EOF", err)
	}
	roundTrip(b, "b")
	if got := reg.Counter("netx_conns_shed_total").Value(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}

	// Wait: with b and c both mid-dispatch, d is not served until one of
	// them parks again.
	b.send(t, "block")
	c.send(t, "block")
	waitParked(t, s, 0)
	d := dialTest(t, s.Addr())
	d.send(t, "d")
	if reply, err := d.reply(100 * time.Millisecond); err == nil {
		t.Fatalf("served %+v past the cap with no connection idle", reply)
	}
	unblock(release)
	if reply, err := d.reply(2 * time.Second); err != nil || reply.Name != "d" {
		t.Fatalf("reply to d after a handler parked = %+v, %v", reply, err)
	}
	if got := reg.Counter("netx_conns_shed_total").Value(); got != 2 {
		t.Fatalf("shed = %d, want 2", got)
	}

	// Close: with both live connections mid-dispatch and accept waiting
	// at the cap for f, Close closes f at once, before any handler
	// parks or ends, then waits for the handlers.
	waitParked(t, s, 2) // the survivor of b and c has parked after its block
	roundTrip(d, "d")   // so d parks after it, and e sheds the survivor
	e := dialTest(t, s.Addr())
	roundTrip(e, "e")
	d.send(t, "hold")
	e.send(t, "hold")
	waitParked(t, s, 0)
	f := dialTest(t, s.Addr())
	for deadline := time.Now().Add(2 * time.Second); !s.waiting.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("accept never waited at the cap for f")
		}
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	if _, err := f.reply(2 * time.Second); !errors.Is(err, io.EOF) {
		t.Fatalf("connection waiting at the cap read %v after Close, want EOF", err)
	}
	unblock(hold)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after its handlers were released")
	}
	if got := handlers.Value(); got != 0 {
		t.Fatalf("handlers after Close = %d, want 0", got)
	}
	if got := reg.Counter("netx_conns_shed_total").Value(); got != 3 {
		t.Fatalf("shed = %d, want 3", got)
	}
}

// TestServerRepliesErrorForBadReply: a handler that answers nil or
// with a request-class envelope does not reach the wire as such; the
// peer gets an ERROR, the write-failure hook runs, and
// netx_bad_replies_total counts it.
func TestServerRepliesErrorForBadReply(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	hooks := 0
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, ServerConfig{Name: "test", Logf: t.Logf}, func(*Conn) Handler {
		return func(env *protocol.Envelope) (*protocol.Envelope, func()) {
			hook := func() { hooks++ }
			switch env.Name {
			case "nil":
				return nil, hook
			case "request":
				return &protocol.Envelope{Type: protocol.TypeMatch}, hook
			}
			return &protocol.Envelope{Type: protocol.TypeAck}, hook
		}
	})
	defer s.Close()
	c := dialTest(t, s.Addr())
	for _, name := range []string{"nil", "request", "ok"} {
		c.send(t, name)
		reply, err := c.reply(2 * time.Second)
		if err != nil {
			t.Fatalf("reply to %s: %v", name, err)
		}
		want := protocol.TypeError
		if name == "ok" {
			want = protocol.TypeAck
		}
		if reply.Type != want {
			t.Errorf("reply to %s = %+v, want %s", name, reply, want)
		}
	}
	s.Close()
	if got := reg.Counter("netx_bad_replies_total").Value(); got != 2 {
		t.Errorf("netx_bad_replies_total = %d, want 2", got)
	}
	if hooks != 2 {
		t.Errorf("write-failure hooks run = %d, want 2", hooks)
	}
}

// TestServerCountsUntracedLifecycle: netx_untraced_lifecycle_total
// counts a lifecycle envelope that arrives without a Trace, and
// neither a traced one nor an untraced envelope of another type.
func TestServerCountsUntracedLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, ServerConfig{Name: "test", Logf: t.Logf}, Dispatch(func(*protocol.Envelope) *protocol.Envelope {
		return &protocol.Envelope{Type: protocol.TypeAck}
	}))
	defer s.Close()
	c := dialTest(t, s.Addr())
	for _, tc := range []struct {
		env  protocol.Envelope
		want int64
	}{
		{protocol.Envelope{Type: protocol.TypeMatch}, 1},
		{protocol.Envelope{Type: protocol.TypeMatch, Trace: "t-1"}, 0},
		{protocol.Envelope{Type: protocol.TypeAdvertise}, 0},
	} {
		before := reg.Counter("netx_untraced_lifecycle_total").Value()
		if err := protocol.Write(c.conn, &tc.env); err != nil {
			t.Fatal(err)
		}
		if _, err := c.reply(2 * time.Second); err != nil {
			t.Fatalf("reply to %+v: %v", tc.env, err)
		}
		if got := reg.Counter("netx_untraced_lifecycle_total").Value() - before; got != tc.want {
			t.Errorf("%s with Trace %q counted %d, want %d", tc.env.Type, tc.env.Trace, got, tc.want)
		}
	}
}
