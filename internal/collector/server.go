package collector

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/classad"
	"repro/internal/classad/analysis"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Server exposes a Store over TCP using the advertising protocol:
// ADVERTISE, INVALIDATE and QUERY envelopes, one or more per
// connection, each acknowledged.
type Server struct {
	store *Store

	// IdleTimeout bounds how long a handler waits for the next
	// envelope on an open connection; a wedged peer times out instead
	// of pinning the goroutine. Set before Listen/Serve; 0 selects
	// netx.DefaultIdleTimeout.
	IdleTimeout time.Duration

	mu   sync.Mutex
	srv  *netx.Server
	logf func(format string, args ...any)

	// Observability hooks; nil (no-op) until Instrument is called.
	events                *obs.Spans
	spans                 *obs.Spans
	mQueries, mProjected  *obs.Counter
	mAdvertise, mBadFrame *obs.Counter
	mLintErrs, mLintWarns *obs.Counter
	lintReg               *obs.Registry
	gHandlers             *obs.Gauge
}

// NewServer wraps store in a protocol server. logf may be nil: the
// server then discards diagnostics (or, once Instrument is called,
// routes them into the log ring alone). Every internal log goes
// through the nil-safe log method, so even a Server constructed as a
// bare struct literal cannot panic on a nil logger.
func NewServer(store *Store, logf func(string, ...any)) *Server {
	return &Server{store: store, logf: logf}
}

// Instrument routes server activity into o: queries served
// (collector_queries_total, collector_queries_projected_total),
// advertisements received (collector_advertise_total), protocol errors
// (collector_bad_frames_total), static-analysis findings on incoming
// advertisements (collector_lint_errors_total,
// collector_lint_warnings_total, and a per-code
// collector_lint_<code>_total breakdown), live handler goroutines
// (collector_handlers gauge), plus the store's own counters. Server
// diagnostics additionally land in the log ring as src "collector",
// name "log". Call before Listen/Serve.
func (s *Server) Instrument(o *obs.Obs) {
	reg := o.Registry()
	s.mu.Lock()
	s.events = o.Events()
	s.spans = o.Spans()
	s.mQueries = reg.Counter("collector_queries_total")
	s.mProjected = reg.Counter("collector_queries_projected_total")
	s.mAdvertise = reg.Counter("collector_advertise_total")
	s.mBadFrame = reg.Counter("collector_bad_frames_total")
	s.mLintErrs = reg.Counter("collector_lint_errors_total")
	s.mLintWarns = reg.Counter("collector_lint_warnings_total")
	s.lintReg = reg
	s.gHandlers = reg.Gauge("collector_handlers")
	s.mu.Unlock()
	if s.store != nil {
		s.store.Instrument(reg)
	}
}

// log emits one diagnostic to the configured logger (when set) and, as
// an uncorrelated entry, to the log ring (when instrumented). Safe on every Server,
// including a zero-value one.
func (s *Server) log(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
	if s.events != nil {
		s.events.Emit("", "collector", "log", map[string]string{
			"msg": fmt.Sprintf(format, args...),
		})
	}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting
// connections in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.Serve(ln), nil
}

// Serve starts accepting connections from an existing listener —
// tests wrap one in a netx.FaultListener to subject the server to
// injected failures without touching server code. It returns the
// listener's address.
func (s *Server) Serve(ln net.Listener) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv = netx.Serve(ln, netx.ServerConfig{
		Name:        "collector",
		Logf:        s.log,
		IdleTimeout: s.IdleTimeout,
		Handlers:    s.gHandlers,
		BadFrames:   s.mBadFrame,
	}, netx.Dispatch(s.dispatch))
	return s.srv.Addr()
}

// Close stops accepting, closes live connections, and waits for
// handlers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	srv.Close()
}

// Store returns the underlying advertisement store (the negotiator
// reads it directly when co-located, as the deployed pool manager's
// collector and negotiator are).
func (s *Server) Store() *Store { return s.store }

func (s *Server) dispatch(env *protocol.Envelope) *protocol.Envelope {
	switch env.Type {
	case protocol.TypeAdvertise:
		s.mAdvertise.Inc()
		ad, err := protocol.DecodeAd(env.Ad)
		if err != nil {
			return protocol.Errorf("bad advertisement: %v", err)
		}
		s.lintAd(ad)
		// Traced ads (job ads carrying a TraceId) get an ad_stored span:
		// the collector hop of the request's causal story.
		sp := s.spans.Start(classad.TraceOf(ad), classad.TraceSpanOf(ad), "collector", "ad_stored")
		if err := s.store.UpdateSeq(ad, env.Lifetime, env.Seq); err != nil {
			sp.Fail(err.Error())
			sp.End()
			return protocol.Errorf("%v", err)
		}
		if name, err := NameOf(ad); err == nil {
			sp.Set("name", name)
		}
		sp.End()
		return &protocol.Envelope{Type: protocol.TypeAck}
	case protocol.TypeUpdateDelta:
		s.mAdvertise.Inc()
		if env.Name == "" {
			return protocol.Errorf("delta update requires a name")
		}
		var changes *classad.Ad
		if env.Ad != "" {
			var err error
			if changes, err = protocol.DecodeAd(env.Ad); err != nil {
				return protocol.Errorf("bad delta: %v", err)
			}
		}
		if err := s.store.ApplyDelta(env.Name, env.BaseSeq, env.Seq, changes, env.Removed, env.Lifetime); err != nil {
			// ErrSeqMismatch rides back as an ordinary ERROR; the reason
			// text carries the sentinel the client maps back to a typed
			// error so the advertiser knows to re-send the full ad.
			return protocol.Errorf("%v", err)
		}
		return &protocol.Envelope{Type: protocol.TypeAck}
	case protocol.TypeInvalidate:
		if env.Name == "" {
			return protocol.Errorf("invalidate requires a name")
		}
		s.store.Invalidate(env.Name)
		return &protocol.Envelope{Type: protocol.TypeAck}
	case protocol.TypeQuery:
		s.mQueries.Inc()
		query, err := protocol.DecodeAd(env.Ad)
		if err != nil {
			return protocol.Errorf("bad query: %v", err)
		}
		var matches []*classad.Ad
		if len(env.Projection) > 0 {
			// Projected queries ship only the named attributes; the
			// ratio projected/total is the projection hit rate.
			s.mProjected.Inc()
			matches = s.store.QueryProject(query, env.Projection)
		} else {
			matches = s.store.Query(query)
		}
		out := make([]string, len(matches))
		for i, ad := range matches {
			out[i] = protocol.EncodeAd(ad)
		}
		return &protocol.Envelope{Type: protocol.TypeQueryReply, Ads: out}
	case protocol.TypeLease:
		if env.Holder == "" {
			return protocol.Errorf("lease request requires a holder")
		}
		lease, granted, err := s.store.AcquireLease(env.Holder, env.Lifetime)
		if err != nil {
			return protocol.Errorf("lease: %v", err)
		}
		// Seq piggybacks the store's pool-change counter so an
		// event-driven negotiator learns "did anything change" from the
		// lease heartbeat it must send anyway.
		return &protocol.Envelope{
			Type: protocol.TypeLeaseReply, Accepted: granted,
			Holder: lease.Holder, Epoch: lease.Epoch, Deadline: lease.Deadline,
			Seq: s.store.Version(),
		}
	default:
		return protocol.Errorf("collector does not handle %s", env.Type)
	}
}

// lintAd runs the static analyzer over a freshly advertised ad and
// feeds the verdicts into the validation counters, with a per-code
// breakdown (collector_lint_cad201_total and friends). The pass is
// gated on instrumentation — an uninstrumented collector skips the
// analysis cost entirely — and findings never reject an
// advertisement: the collector stays forgiving about ad contents, it
// just keeps score.
func (s *Server) lintAd(ad *classad.Ad) {
	s.mu.Lock()
	reg := s.lintReg
	s.mu.Unlock()
	if reg == nil {
		return
	}
	for _, d := range analysis.AnalyzeAd(ad, nil) {
		if d.Severity >= analysis.Error {
			s.mLintErrs.Inc()
		} else {
			s.mLintWarns.Inc()
		}
		reg.Counter("collector_lint_" + strings.ToLower(d.Code) + "_total").Inc()
		if name, ok := ad.Eval(classad.AttrName).StringVal(); ok {
			s.log("collector: lint %s: %s", name, d)
		} else {
			s.log("collector: lint: %s", d)
		}
	}
	s.lintBilateral(reg, ad)
}

// bilateralSample caps how many stored counterpart ads one incoming
// advertisement is checked against, bounding the per-ADVERTISE cost in
// a large pool to a constant.
const bilateralSample = 64

// lintBilateral runs the cross-ad analyzer between a freshly
// advertised ad and a sample of its stored counterparts (ads of a
// different Type), keeping score:
//
//	collector_lint_bilateral_checked_total    pairs analyzed
//	collector_lint_bilateral_conflicts_total  pairs proven unmatchable
//	collector_lint_bilateral_dead_total       ads no sampled counterpart can match
//
// A climbing conflicts/checked ratio means the pool is filling with
// ads that can never pair — the SAMGrid failure mode — and the dead
// counter names how many arrivals are provably wasted. Like the
// single-ad lint, this never rejects an advertisement.
func (s *Server) lintBilateral(reg *obs.Registry, ad *classad.Ad) {
	counterparts, dead := 0, 0
	for _, stored := range s.store.Query(classad.NewAd()) {
		if counterparts >= bilateralSample {
			break
		}
		if !analysis.IsCounterpart(ad, stored) {
			continue
		}
		counterparts++
		reg.Counter("collector_lint_bilateral_checked_total").Inc()
		if analysis.AnalyzeMatch(ad, stored, nil).NeverMatch {
			reg.Counter("collector_lint_bilateral_conflicts_total").Inc()
			dead++
		}
	}
	if counterparts > 0 && dead == counterparts {
		reg.Counter("collector_lint_bilateral_dead_total").Inc()
		if name, ok := ad.Eval(classad.AttrName).StringVal(); ok {
			s.log("collector: lint %s: no sampled counterpart (%d checked) can ever match this ad", name, counterparts)
		} else {
			s.log("collector: lint: no sampled counterpart (%d checked) can ever match this ad", counterparts)
		}
	}
}

// Client is a thin dialer for talking to a collector server; tools and
// agents share it. Round-trips run on the dialer's cached connections,
// are bounded (connect timeout plus per-envelope deadlines) and are
// retried with capped exponential backoff:
// every advertising-protocol message is idempotent — re-ADVERTISing
// refreshes, re-INVALIDATing is a no-op, re-QUERYing re-reads — so a
// retry against a restarted collector is always safe (the paper's
// weak-consistency design, §4.3).
type Client struct {
	Addr string
	// Dialer supplies timeouts; nil selects netx.DefaultDialer.
	Dialer *netx.Dialer
	// Retry is the backoff policy for transport failures; the zero
	// value selects the netx defaults. Application-level ERROR
	// replies are never retried.
	Retry netx.RetryPolicy
}

// roundTrip sends one envelope and reads one reply on a connection
// from the dialer's cache, retrying transport failures. Every message
// the client sends is idempotent, so a cached connection found dead is
// replaced and the envelope replayed at once (netx.Dialer.Do).
func (c *Client) roundTrip(env *protocol.Envelope) (*protocol.Envelope, error) {
	d := c.Dialer
	if d == nil {
		d = netx.DefaultDialer
	}
	var reply *protocol.Envelope
	err := netx.Retry(context.Background(), c.Retry, func() error {
		return d.Do(c.Addr, 0, protocol.Idempotent(env.Type), func(conn *netx.Conn) error {
			var err error
			reply, err = protocol.Exchange(conn, conn.Reader(), env)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// Advertise sends an ad with the given lifetime (0 for the default).
func (c *Client) Advertise(ad *classad.Ad, lifetime int64) error {
	reply, err := c.roundTrip(&protocol.Envelope{
		Type: protocol.TypeAdvertise, Ad: protocol.EncodeAd(ad), Lifetime: lifetime,
	})
	if err != nil {
		return err
	}
	return ackOrError(reply)
}

// Invalidate withdraws the ad stored under name.
func (c *Client) Invalidate(name string) error {
	reply, err := c.roundTrip(&protocol.Envelope{Type: protocol.TypeInvalidate, Name: name})
	if err != nil {
		return err
	}
	return ackOrError(reply)
}

// Query poses a one-way query and returns the matching ads.
func (c *Client) Query(query *classad.Ad) ([]*classad.Ad, error) {
	return c.QueryProject(query, nil)
}

// QueryProject is Query restricted to the named attributes (Name is
// always included).
func (c *Client) QueryProject(query *classad.Ad, attrs []string) ([]*classad.Ad, error) {
	reply, err := c.roundTrip(&protocol.Envelope{
		Type: protocol.TypeQuery, Ad: protocol.EncodeAd(query), Projection: attrs,
	})
	if err != nil {
		return nil, err
	}
	if reply.Type == protocol.TypeError {
		return nil, errors.New(reply.Reason)
	}
	if reply.Type != protocol.TypeQueryReply {
		return nil, errors.New("collector: unexpected reply " + string(reply.Type))
	}
	out := make([]*classad.Ad, 0, len(reply.Ads))
	for _, s := range reply.Ads {
		ad, err := protocol.DecodeAd(s)
		if err != nil {
			return nil, err
		}
		out = append(out, ad)
	}
	return out, nil
}

// AcquireLease requests (or renews) the negotiator leadership lease
// for holder, for ttl seconds (0 for the collector's default). The
// returned state describes the lease after the request: the holder's
// own grant, or the incumbent it lost to (granted false). Safe to
// retry: re-requesting a held lease renews it.
func (c *Client) AcquireLease(holder string, ttl int64) (Lease, bool, error) {
	lease, granted, _, err := c.AcquireLeaseSeq(holder, ttl)
	return lease, granted, err
}

// AcquireLeaseSeq is AcquireLease additionally returning the
// collector's pool-change counter (Store.Version) from the reply — the
// signal an event-driven negotiator compares across heartbeats to
// decide whether a negotiation cycle has any work. A collector
// predating the counter reports 0, which compares as "changed" against
// any cached value's successor and so degrades to timer-mode behavior.
func (c *Client) AcquireLeaseSeq(holder string, ttl int64) (Lease, bool, uint64, error) {
	reply, err := c.roundTrip(&protocol.Envelope{
		Type: protocol.TypeLease, Holder: holder, Lifetime: ttl,
	})
	if err != nil {
		return Lease{}, false, 0, err
	}
	if reply.Type == protocol.TypeError {
		return Lease{}, false, 0, errors.New(reply.Reason)
	}
	if reply.Type != protocol.TypeLeaseReply {
		return Lease{}, false, 0, errors.New("collector: unexpected reply " + string(reply.Type))
	}
	return Lease{Holder: reply.Holder, Epoch: reply.Epoch, Deadline: reply.Deadline}, reply.Accepted, reply.Seq, nil
}

func ackOrError(reply *protocol.Envelope) error {
	switch reply.Type {
	case protocol.TypeAck:
		return nil
	case protocol.TypeError:
		return errors.New(reply.Reason)
	default:
		return errors.New("collector: unexpected reply " + string(reply.Type))
	}
}
