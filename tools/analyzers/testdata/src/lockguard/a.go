// Package lockguard seeds network-I/O-under-lock violations for the
// lockguard analyzer.
package lockguard

import (
	"net"
	"sync"

	"repro/internal/netx"
	"repro/internal/protocol"
)

type dialer struct{}

func (dialer) Dial(addr string) (net.Conn, error) { return nil, nil }

type server struct {
	mu    sync.Mutex
	state sync.RWMutex
	d     dialer
	ch    chan int
	conn  net.Conn
}

func (s *server) sendWhileLocked() {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while s\\.mu is held"
	s.mu.Unlock()
}

func (s *server) dialWhileLocked(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	net.Dial("tcp", addr) // want "net\\.Dial while s\\.mu is held"
}

// A deferred unlock keeps the lock held to the end of the function.
func (s *server) deferKeepsHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 2 // want "channel send while s\\.mu is held"
}

func (s *server) rpcWhileReadLocked(env *protocol.Envelope) {
	s.state.RLock()
	defer s.state.RUnlock()
	protocol.Write(s.conn, env) // want "protocol\\.Write round-trip while s\\.state is held"
}

func (s *server) dialerWhileLocked(addr string) {
	s.mu.Lock()
	s.d.Dial(addr) // want "s\\.d\\.Dial while s\\.mu is held"
	s.mu.Unlock()
}

// Unlock-then-send is the fix the analyzer pushes toward.
func (s *server) sendAfterUnlock() {
	s.mu.Lock()
	v := 3
	s.mu.Unlock()
	s.ch <- v
}

// A send in a select with a default case cannot block.
func (s *server) nonBlockingSend() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 4:
	default:
	}
}

// A select without a default blocks like a bare send.
func (s *server) blockingSelectSend() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 5: // want "channel send while s\\.mu is held"
	}
}

// A spawned goroutine does not hold the caller's lock.
func (s *server) handoff() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 6
	}()
}

// Listening-side net use under a lock stays legal.
func (s *server) listenWhileLocked() (net.Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return net.Listen("tcp", "127.0.0.1:0")
}

// A conversation on a cached connection blocks like a dial.
func (s *server) conversationWhileLocked(nd *netx.Dialer, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nd.Do(addr, 0, true, func(*netx.Conn) error { return nil }) // want "nd\\.Do conversation while s\\.mu is held"
}

// sync.Once.Do is not a conversation.
func (s *server) onceWhileLocked(once *sync.Once) {
	s.mu.Lock()
	defer s.mu.Unlock()
	once.Do(func() {})
}
