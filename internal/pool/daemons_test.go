package pool

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/remote"
)

// requireTracedLifecycle instruments netx for the rest of the test and
// fails it at cleanup if any lifecycle envelope (MATCH, CLAIM, RELEASE,
// PREEMPT, JOB_DONE) reached a daemon without the job's trace.
func requireTracedLifecycle(t *testing.T) {
	t.Helper()
	reg := obs.NewRegistry()
	netx.Instrument(reg)
	t.Cleanup(func() {
		netx.Instrument(nil)
		if n := reg.Counter("netx_untraced_lifecycle_total").Value(); n != 0 {
			t.Errorf("netx_untraced_lifecycle_total = %d, want 0", n)
		}
	})
}

// exchange sends one envelope on a raw connection and reads the reply.
func exchange(t *testing.T, conn net.Conn, r *bufio.Reader, env *protocol.Envelope) *protocol.Envelope {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	reply, err := protocol.Exchange(conn, r, env)
	if err != nil {
		t.Fatalf("%s: %v", env.Type, err)
	}
	return reply
}

// TestEveryDaemonAnswersEveryType sends every message type of the
// protocol to each daemon that serves on netx.Serve. A type the daemon
// serves gets a reply-class answer that is not the "does not handle"
// error; every other type gets exactly that error. No handler answers
// nil or with a request, so netx_bad_replies_total stays 0; each
// untraced lifecycle envelope sent counts once in
// netx_untraced_lifecycle_total, and nothing else does.
func TestEveryDaemonAnswersEveryType(t *testing.T) {
	reg := obs.NewRegistry()
	netx.Instrument(reg)
	t.Cleanup(func() { netx.Instrument(nil) })

	srv := collector.NewServer(collector.New(nil), t.Logf)
	collectorAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), collectorAddr, 0, t.Logf)
	raAddr, err := ra.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ra.Close)
	ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), collectorAddr, 0, t.Logf)
	caAddr, err := ca.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)
	shadowAddr, err := ca.EnableExecution(remote.NewFileStore())
	if err != nil {
		t.Fatal(err)
	}

	lifecycle := 0
	for _, d := range []struct {
		name, addr string
		serves     []protocol.MsgType
	}{
		{"collector", collectorAddr, []protocol.MsgType{protocol.TypeAdvertise, protocol.TypeUpdateDelta,
			protocol.TypeInvalidate, protocol.TypeQuery, protocol.TypeLease}},
		{"ra", raAddr, []protocol.MsgType{protocol.TypeMatch, protocol.TypeClaim, protocol.TypeRelease}},
		{"ca", caAddr, []protocol.MsgType{protocol.TypeMatch, protocol.TypePreempt, protocol.TypeSubmit,
			protocol.TypeQuery, protocol.TypeJobDone}},
		{"shadow", shadowAddr, []protocol.MsgType{protocol.TypeSysOpen, protocol.TypeSysRead,
			protocol.TypeSysWrite, protocol.TypeSysTrunc, protocol.TypeSysClose, protocol.TypeCkptSave,
			protocol.TypeCkptLoad}},
	} {
		t.Run(d.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", d.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			served := map[protocol.MsgType]bool{}
			for _, typ := range d.serves {
				served[typ] = true
			}
			for _, typ := range protocol.Types {
				reply := exchange(t, conn, r, &protocol.Envelope{Type: typ})
				if typ.IsLifecycle() {
					lifecycle++
				}
				unhandled := reply.Type == protocol.TypeError &&
					strings.HasSuffix(reply.Reason, "does not handle "+string(typ))
				switch {
				case !reply.Type.IsReply():
					t.Errorf("%s answered %s with request-class %s", d.name, typ, reply.Type)
				case served[typ] && unhandled:
					t.Errorf("%s does not handle %s, which it serves: %q", d.name, typ, reply.Reason)
				case !served[typ] && !unhandled:
					t.Errorf("%s answered %s, which it does not serve, with %s %q", d.name, typ, reply.Type, reply.Reason)
				}
			}
		})
	}
	if got := reg.Counter("netx_bad_replies_total").Value(); got != 0 {
		t.Errorf("netx_bad_replies_total = %d, want 0", got)
	}
	if got := reg.Counter("netx_untraced_lifecycle_total").Value(); got != int64(lifecycle) {
		t.Errorf("netx_untraced_lifecycle_total = %d, want the %d untraced lifecycle envelopes sent", got, lifecycle)
	}
}

// httpGet makes one request on a connection of its own and closes it,
// so no client goroutine outlives the call.
func httpGet(t *testing.T, url string) {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
}

// TestNoGoroutineOutlivesItsDaemon starts each daemon that owns
// goroutines, makes one round trip through it, closes it, and requires
// the goroutine count back at exactly its baseline: every accept loop,
// connection handler, starter, pump and HTTP server has a shutdown
// path that its Close or Stop takes.
func TestNoGoroutineOutlivesItsDaemon(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"collector server", func(t *testing.T) {
			srv := collector.NewServer(collector.New(nil), t.Logf)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (&collector.Client{Addr: addr}).Query(classad.NewAd()); err != nil {
				t.Fatal(err)
			}
			srv.Close()
		}},
		{"resource daemon running a job", func(t *testing.T) {
			mgr := NewManager(ManagerConfig{Logf: t.Logf})
			addr, err := mgr.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			ra := NewResourceDaemon(agent.NewResource(figure1Machine(), nil), addr, 0, t.Logf)
			if _, err := ra.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer ra.Close()
			ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), addr, 0, t.Logf)
			if _, err := ca.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer ca.Close()
			fs := remote.NewFileStore()
			fs.Put("in", bytes.Repeat([]byte("x"), 64*6400)) // long enough to be running at Close
			if _, err := ca.EnableExecution(fs); err != nil {
				t.Fatal(err)
			}
			job := ca.CA.Submit(execJob(), 100)
			if err := ra.Advertise(); err != nil {
				t.Fatal(err)
			}
			if err := ca.AdvertiseIdle(); err != nil {
				t.Fatal(err)
			}
			if res := mgr.RunCycle(); res.Notified != 1 {
				t.Fatalf("cycle: %+v errors=%v", res, res.Errors)
			}
			waitStatus(t, ca, job.ID, agent.JobRunning, 5*time.Second)
		}},
		{"customer daemon with execution", func(t *testing.T) {
			ca := NewCustomerDaemon(agent.NewCustomer("raman", nil), "127.0.0.1:1", 0, t.Logf)
			addr, err := ca.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			shadowAddr, err := ca.EnableExecution(remote.NewFileStore())
			if err != nil {
				t.Fatal(err)
			}
			for _, rt := range []struct {
				addr string
				env  *protocol.Envelope
			}{
				{addr, &protocol.Envelope{Type: protocol.TypeQuery, Ad: "[ Constraint = true ]"}},
				{shadowAddr, &protocol.Envelope{Type: protocol.TypeCkptLoad, Path: "raman/job1"}},
			} {
				conn, err := net.Dial("tcp", rt.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if reply := exchange(t, conn, bufio.NewReader(conn), rt.env); reply.Type == protocol.TypeError {
					t.Fatalf("%s: %s", rt.env.Type, reply.Reason)
				}
			}
			ca.Close()
		}},
		{"event loop", func(t *testing.T) {
			m := NewManager(ManagerConfig{Logf: t.Logf})
			t.Cleanup(m.Close) // after the count: the pump must end on Stop alone
			el := m.StartEvents(0)
			if err := m.Store().Update(figure1Machine(), 0); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); !el.Engine().NeedsWake(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the pump never fed the ad to the engine")
				}
			}
			el.Stop()
		}},
		{"obs debug server", func(t *testing.T) {
			ds, err := obs.New().ServeDebug("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			httpGet(t, "http://"+ds.Addr()+"/metrics")
			ds.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			tc.run(t)
			waitGoroutineBaseline(t, baseline, 0)
		})
	}
}
