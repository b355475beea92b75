package netx

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"
)

// Transport is an in-process network. A daemon serves on it by passing
// one of its listeners to Serve, which files the daemon's handler under
// the listener's address instead of accepting, and a Dialer from
// Dialer() reaches it there. A connection has no goroutine: once the
// client has written a whole envelope, the handler answers it on the
// client's own call, by the step every Server runs per envelope, and
// the reply waits for the client's Read. A read with nothing to read
// gets io.EOF at once (a handler that converses mid-call, as the RA's
// claim challenge does, fails there), and deadlines are ignored. So a
// conversation is a sequence of ordinary calls, and a run over a
// Transport replays the same way every time; the model checker runs
// the real daemons on one. A Transport serves one goroutine at a time.
type Transport struct {
	servers map[string]*Server
	lost    map[string]bool
}

var errReplyLost = errors.New("netx: in-process reply lost")

// NewTransport returns an empty in-process network.
func NewTransport() *Transport {
	return &Transport{servers: map[string]*Server{}, lost: map[string]bool{}}
}

// Listen returns a listener for addr, for Serve. Closing it, as
// Server.Close does, takes addr off the network.
func (t *Transport) Listen(addr string) net.Listener {
	return &memListener{t: t, addr: &net.UnixAddr{Name: addr, Net: "mem"}}
}

// Dialer returns a Dialer that dials the Transport. Its connection cache
// keeps time by a clock that never moves, so no connection idles out.
func (t *Transport) Dialer() *Dialer {
	return &Dialer{DialFunc: t.Dial, clock: func() time.Time { return time.Time{} }}
}

// Dial opens a connection to the server at addr.
func (t *Transport) Dial(addr string) (net.Conn, error) {
	s := t.servers[addr]
	if s == nil {
		return nil, fmt.Errorf("netx: dial %s: no in-process server", addr)
	}
	p := &memPipe{t: t, addr: s.ln.Addr(), srv: s}
	p.conn = newConn(memServerEnd{p})
	p.handle = s.newHandler(p.conn)
	return memClientEnd{p}, nil
}

// LoseReplies sets whether the replies of the server at addr are lost:
// while set, each reply's write fails, so the server runs the reply's
// write-failure hook and drops the connection, and the client's read
// fails.
func (t *Transport) LoseReplies(addr string, lose bool) { t.lost[addr] = lose }

// memListener is a Transport address, awaiting or taken by a Server.
type memListener struct {
	t    *Transport
	addr net.Addr
}

func (l *memListener) Accept() (net.Conn, error) { return nil, net.ErrClosed }
func (l *memListener) Addr() net.Addr            { return l.addr }
func (l *memListener) Close() error              { delete(l.t.servers, l.addr.String()); return nil }

// memPipe is one in-process connection: the bytes each side has written
// for the other, and the server's end as its handler sees it.
type memPipe struct {
	t                  *Transport
	addr               net.Addr
	srv                *Server
	conn               *Conn
	handle             Handler
	toServer, toClient bytes.Buffer
	closed             bool
}

func (p *memPipe) LocalAddr() net.Addr              { return p.addr }
func (p *memPipe) RemoteAddr() net.Addr             { return p.addr }
func (p *memPipe) SetDeadline(time.Time) error      { return nil }
func (p *memPipe) SetReadDeadline(time.Time) error  { return nil }
func (p *memPipe) SetWriteDeadline(time.Time) error { return nil }
func (p *memPipe) Close() error                     { p.closed = true; return nil }

// memClientEnd is the dialer's end of a memPipe.
type memClientEnd struct{ *memPipe }

// Write sends b and answers every envelope it completes.
func (c memClientEnd) Write(b []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	c.toServer.Write(b)
	for n := bytes.Count(b, []byte{'\n'}); n > 0 && !c.closed; n-- {
		c.closed = !c.srv.step(c.conn, c.handle)
	}
	return len(b), nil
}

func (c memClientEnd) Read(b []byte) (int, error) { return c.toClient.Read(b) }

// memServerEnd is the handler's end of a memPipe.
type memServerEnd struct{ *memPipe }

func (s memServerEnd) Read(b []byte) (int, error) { return s.toServer.Read(b) }

func (s memServerEnd) Write(b []byte) (int, error) {
	if s.t.lost[s.addr.String()] {
		s.closed = true
		return 0, errReplyLost
	}
	return s.toClient.Write(b)
}
