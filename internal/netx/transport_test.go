package netx

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/protocol"
)

// echoHandlers answer each QUERY with a QUERY_REPLY that echoes its
// Name, counting the connections they served and the replies whose
// write failed.
type echoHandlers struct {
	conns, lost int
}

func serveMem(t *testing.T, tr *Transport, addr string, newHandler func(*Conn) Handler) *Server {
	t.Helper()
	s := Serve(tr.Listen(addr), ServerConfig{Name: addr, Logf: t.Logf}, newHandler)
	t.Cleanup(s.Close)
	return s
}

func (m *echoHandlers) newHandler(*Conn) Handler {
	m.conns++
	return func(env *protocol.Envelope) (*protocol.Envelope, func()) {
		return &protocol.Envelope{Type: protocol.TypeQueryReply, Name: env.Name}, func() { m.lost++ }
	}
}

// query runs one QUERY conversation per name on one connection.
func query(d *Dialer, addr string, names ...string) error {
	return d.Do(addr, 0, true, func(c *Conn) error {
		for _, name := range names {
			reply, err := protocol.Exchange(c, c.Reader(), &protocol.Envelope{Type: protocol.TypeQuery, Name: name})
			if err != nil {
				return err
			}
			if reply.Name != name {
				return errors.New("reply to " + name + " names " + reply.Name)
			}
		}
		return nil
	})
}

// A conversation of two envelopes is answered in order on one
// connection, which the dialer caches and the next conversation reuses.
func TestTransportConversationReusesConnection(t *testing.T) {
	tr := NewTransport()
	var m echoHandlers
	serveMem(t, tr, "srv", m.newHandler)
	d := tr.Dialer()
	if err := query(d, "srv", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if d.nIdle != 1 {
		t.Fatalf("idle = %d after a clean conversation, want 1", d.nIdle)
	}
	if err := query(d, "srv", "c"); err != nil {
		t.Fatal(err)
	}
	if m.conns != 1 {
		t.Fatalf("server saw %d connections, want 1 reused", m.conns)
	}
}

// A lost reply runs the reply's write-failure hook, fails the
// conversation and leaves its connection out of the cache; once replies
// flow again a new connection serves.
func TestTransportLostReply(t *testing.T) {
	tr := NewTransport()
	var m echoHandlers
	serveMem(t, tr, "srv", m.newHandler)
	d := tr.Dialer()
	tr.LoseReplies("srv", true)
	if err := query(d, "srv", "a"); err == nil {
		t.Fatal("conversation succeeded with its reply lost")
	}
	if m.lost != 1 {
		t.Fatalf("write-failure hook ran %d times, want 1", m.lost)
	}
	if d.nIdle != 0 {
		t.Fatalf("idle = %d, want the failed connection closed", d.nIdle)
	}
	tr.LoseReplies("srv", false)
	if err := query(d, "srv", "b"); err != nil {
		t.Fatal(err)
	}
	if m.conns != 2 {
		t.Fatalf("server saw %d connections, want 2", m.conns)
	}
}

// Dialing an address nobody serves on, or no longer serves on, fails.
func TestTransportUnknownAddress(t *testing.T) {
	tr := NewTransport()
	d := tr.Dialer()
	if err := query(d, "nowhere", "a"); err == nil || !strings.Contains(err.Error(), "no in-process server") {
		t.Fatalf("err = %v, want a dial error", err)
	}
	var m echoHandlers
	s := serveMem(t, tr, "srv", m.newHandler)
	s.Close()
	if err := query(d, "srv", "a"); err == nil {
		t.Fatal("dial to a closed server succeeded")
	}
}

// A handler that converses mid-call, as the RA's claim challenge does,
// finds nothing to read: its read ends at once, with io.EOF, instead of
// waiting, and the client reads the mid-call envelope and then the
// handler's reply.
func TestTransportMidCallReadFails(t *testing.T) {
	tr := NewTransport()
	var readErr error
	serveMem(t, tr, "srv", func(c *Conn) Handler {
		return func(*protocol.Envelope) (*protocol.Envelope, func()) {
			if err := protocol.Write(c, &protocol.Envelope{Type: protocol.TypeChallenge, Nonce: "n"}); err != nil {
				return protocol.Errorf("challenge write: %v", err), nil
			}
			_, readErr = protocol.Read(c.Reader())
			return protocol.Errorf("challenge read: %v", readErr), nil
		}
	})
	d := tr.Dialer()
	var got []*protocol.Envelope
	err := d.Do("srv", 0, false, func(c *Conn) error {
		if err := protocol.Write(c, &protocol.Envelope{Type: protocol.TypeClaim}); err != nil {
			return err
		}
		for range 2 {
			env, err := protocol.Read(c.Reader())
			if err != nil {
				return err
			}
			got = append(got, env)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(readErr, io.EOF) {
		t.Fatalf("mid-call read err = %v, want io.EOF", readErr)
	}
	if len(got) != 2 || got[0].Type != protocol.TypeChallenge || got[1].Type != protocol.TypeError {
		t.Fatalf("client read %v, want the challenge then the error reply", got)
	}
}
