package obs

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// Handler returns the debug endpoint: /metrics (registry snapshot as
// JSON), /trace (both rings as JSON, filterable with ?id= and ?n=; see
// records), any extensions registered via Handle, and the standard
// pprof tree under /debug/pprof/. The handler is read-only and safe
// to expose on a loopback or operations-network address; it is never
// started unless a daemon is given -debug-addr.
func (o *Obs) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.Registry().Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit, _ := strconv.Atoi(q.Get("n"))
		writeJSON(w, o.records(q.Get("id"), limit))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		// Extensions registered via Handle may arrive after ServeDebug
		// started the mux, so they are resolved per request here
		// rather than registered as routes.
		if fn := o.handler(r.URL.Path); fn != nil {
			v, err := fn(r.URL.Query())
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			writeJSON(w, v)
			return
		}
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("matchmaking debug endpoint\n" +
			"  /metrics          metrics registry snapshot (JSON)\n" +
			"  /trace            span and log rings (JSON; ?id= ?n=)\n" +
			"  /debug/pprof/     Go runtime profiles\n"))
	})
	return mux
}

// records returns the records of trace id from the span ring and the
// log ring, merged stably by start time (a span before a log entry that
// starts at the same instant), keeping the newest limit when limit > 0.
// An empty id selects every record. Always returns a non-nil slice.
func (o *Obs) records(id string, limit int) []Span {
	out := append(o.Spans().Select(id, limit), o.Events().Select(id, limit)...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// DebugServer is a running debug HTTP endpoint.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug binds addr and serves the Handler in the background,
// returning the bound address (addr may use port 0). A nil Obs has
// nothing to serve: it binds nothing and returns an error.
func (o *Obs) ServeDebug(addr string) (*DebugServer, error) {
	if o == nil {
		return nil, errors.New("obs: ServeDebug on a nil *Obs")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: o.Handler()}
	go srv.Serve(ln)
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *DebugServer) Close() error { return s.srv.Close() }
