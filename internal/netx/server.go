package netx

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// maxServerConns bounds the live connections of one Server. It is a
// variable only so an in-package test can lower it.
var maxServerConns = 4096

// shedMark is Conn.parked once the server has closed the connection to
// make room for a new one.
const shedMark = -1

// A Handler answers one envelope. The server writes the reply back and,
// if that write fails, calls onWriteFailure when it is set (the RA
// withdraws a claim whose acceptance never reached the customer).
type Handler func(env *protocol.Envelope) (reply *protocol.Envelope, onWriteFailure func())

// Dispatch adapts a dispatch function that needs neither its connection
// nor a write-failure hook.
func Dispatch(dispatch func(*protocol.Envelope) *protocol.Envelope) func(*Conn) Handler {
	h := func(env *protocol.Envelope) (*protocol.Envelope, func()) { return dispatch(env), nil }
	return func(*Conn) Handler { return h }
}

// ServerConfig is what a Server needs from its daemon.
type ServerConfig struct {
	// Name prefixes the read and write errors sent to Logf.
	Name string
	Logf func(format string, args ...any)
	// IdleTimeout bounds the wait for the next envelope, so a wedged
	// peer cannot pin a handler; 0 selects DefaultIdleTimeout. Reply
	// writes are bounded by DefaultIOTimeout.
	IdleTimeout time.Duration
	// Handlers gauges live handlers; BadFrames counts unreadable
	// envelopes. Either may be nil.
	Handlers  *obs.Gauge
	BadFrames *obs.Counter
}

// Server is the one accept → read → dispatch → write loop under every
// daemon endpoint: the collector, the RA's claiming endpoint, the CA's
// notification endpoint and the shadow. Each connection gets its own
// goroutine. Clients keep connections between conversations
// (Dialer.Do), so a handler spends most of its life parked, waiting
// for the next envelope, and Close ends those waits at once. At
// maxServerConns live connections, accepting one more first closes the
// connection parked longest (netx_conns_shed_total); while none is
// parked, accept waits for one to park or end. A handler answers every
// envelope with a reply-class one: a nil or request-class answer goes
// out as an ERROR and counts in netx_bad_replies_total. A lifecycle
// envelope (protocol.MsgType.IsLifecycle) that arrives without a Trace
// counts in netx_untraced_lifecycle_total.
type Server struct {
	ln         net.Listener
	cfg        ServerConfig
	newHandler func(*Conn) Handler

	mu     sync.Mutex
	closed bool
	live   map[*Conn]struct{}
	wg     sync.WaitGroup
	// room holds a token once a connection has ended, or has parked
	// while accept waits at the cap; done is closed by Close. Accept
	// waits on both outside the lock, and handlers put the token
	// without blocking.
	room chan struct{}
	done chan struct{}
	// waiting is set while accept waits at the cap; only then does a
	// parking handler put the token.
	waiting atomic.Bool
}

// Serve starts serving ln. newHandler runs once per connection, on the
// connection's goroutine, and returns the function that answers its
// envelopes. Per-connection state (the shadow's descriptor table) lives
// in that closure, and the connection is there for a handler that
// converses mid-dispatch (the RA's claim challenge). On a Transport's
// listener nothing is accepted: the Transport serves each connection
// dialed to it on the dialer's calls.
func Serve(ln net.Listener, cfg ServerConfig, newHandler func(*Conn) Handler) *Server {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	s := &Server{ln: ln, cfg: cfg, newHandler: newHandler, live: make(map[*Conn]struct{}),
		room: make(chan struct{}, 1), done: make(chan struct{})}
	if ml, ok := ln.(*memListener); ok {
		ml.t.servers[ml.addr.String()] = s // its connections are served on the dialer's calls
		return s
	}
	s.wg.Add(1)
	go s.accept()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes the live connections and waits for
// their handlers. Closing a nil Server does nothing.
func (s *Server) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.live {
		c.nc.Close()
	}
	close(s.done)
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := newConn(nc)
		c.readTO, c.writeTO = s.cfg.IdleTimeout, DefaultIOTimeout
		if !s.admit(c) {
			nc.Close()
			return
		}
		s.wg.Add(1)
		go s.serve(c)
	}
}

// admit adds c to the live set, making room first at the cap. It
// reports false once the server is closed.
func (s *Server) admit(c *Conn) bool {
	defer s.waiting.Store(false)
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return false
		}
		full := len(s.live) >= maxServerConns
		if full {
			s.waiting.Store(true) // before the scan: a handler parking after it puts the token
		}
		if !full || s.shedLocked() {
			s.live[c] = struct{}{}
			s.mu.Unlock()
			return true
		}
		s.mu.Unlock()
		select {
		case <-s.room:
		case <-s.done:
		}
	}
}

// signalRoom puts the token accept waits for, unless one is there.
func (s *Server) signalRoom() {
	select {
	case s.room <- struct{}{}:
	default:
	}
}

// shedLocked closes the connection parked longest, if one is parked.
// It fails too when that handler has just received an envelope; the
// handler puts the token when it parks again.
func (s *Server) shedLocked() bool {
	var oldest *Conn
	var since int64
	for c := range s.live {
		if t := c.parked.Load(); t > 0 && (oldest == nil || t < since) {
			oldest, since = c, t
		}
	}
	if oldest == nil || !oldest.parked.CompareAndSwap(since, shedMark) {
		return false
	}
	delete(s.live, oldest)
	oldest.nc.Close()
	metrics().shed.Inc()
	return true
}

// serve runs one connection's read → dispatch → write loop.
func (s *Server) serve(c *Conn) {
	defer s.wg.Done()
	s.cfg.Handlers.Inc()
	defer func() {
		c.nc.Close()
		s.mu.Lock()
		delete(s.live, c)
		s.mu.Unlock()
		s.signalRoom()
		s.cfg.Handlers.Dec()
	}()
	handle := s.newHandler(c)
	for {
		c.parked.Store(time.Now().UnixNano()) //determguard:ok orders shedding among accepted sockets; a Transport's servers never run this loop
		if s.waiting.Load() {
			s.signalRoom()
		}
		if !s.step(c, handle) {
			return
		}
	}
}

// step answers one envelope on c: read it, hand it to handle, write the
// reply and, if that write fails, call the reply's write-failure hook.
// A nil or request-class reply is not written: the peer gets an ERROR
// instead, and the hook runs, since what the handler meant to answer
// never reaches it. It reports whether the connection lives on. The
// accept loop's connections and the in-process ones (Transport) both
// run it, so the model checker explores this rule too.
func (s *Server) step(c *Conn, handle Handler) bool {
	env, err := protocol.Read(c.r)
	if c.parked.Swap(0) == shedMark {
		return false // an envelope that arrived anyway goes unanswered, as on a dead connection
	}
	if err != nil {
		// A clean close, Close or shedding, or the idle deadline is
		// lifecycle; anything else is a bad frame.
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) &&
			!errors.Is(err, os.ErrDeadlineExceeded) {
			s.cfg.BadFrames.Inc()
			s.cfg.Logf("%s: read: %v", s.cfg.Name, err)
		}
		return false
	}
	if env.Trace == "" && env.Type.IsLifecycle() {
		metrics().untraced.Inc()
	}
	reply, onWriteFailure := handle(env)
	if reply == nil || !reply.Type.IsReply() {
		got := "nil"
		if reply != nil {
			got = string(reply.Type)
		}
		metrics().badReplies.Inc()
		s.cfg.Logf("%s: bad reply %s to %s", s.cfg.Name, got, env.Type)
		reply = protocol.Errorf("%s: no valid reply to %s", s.cfg.Name, env.Type)
		if onWriteFailure != nil {
			onWriteFailure()
			onWriteFailure = nil
		}
	}
	if err := protocol.Write(c, reply); err != nil {
		s.cfg.Logf("%s: write: %v", s.cfg.Name, err)
		if onWriteFailure != nil {
			onWriteFailure()
		}
		return false
	}
	return true
}
