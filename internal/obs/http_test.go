package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDebugEndpoints starts the debug server and exercises /metrics,
// /trace (one trace's spans and log entries, merged in start order)
// and the pprof index over real HTTP.
func TestDebugEndpoints(t *testing.T) {
	o := New()
	o.Reg.Counter("collector_queries_total").Add(5)
	o.Reg.Histogram("pool_claim_seconds", nil).Observe(0.002)
	t0 := time.Now()
	// The span ring records a hop when it ends, so recording order is
	// not start order: the claim span ends (and is recorded) after the
	// log entry emitted inside it.
	o.Sp.Record(Span{Trace: "t-1", ID: "s-1", Src: "ca", Name: "submit", Start: t0, End: t0.Add(time.Millisecond)})
	o.Ev.Record(Span{Trace: "t-1", Src: "matchmaker", Name: "match", Start: t0.Add(2 * time.Millisecond), End: t0.Add(2 * time.Millisecond)})
	o.Sp.Record(Span{Trace: "t-1", ID: "s-2", Src: "ca", Name: "claim", Start: t0.Add(time.Millisecond), End: t0.Add(4 * time.Millisecond)})
	o.Ev.Emit("t-2", "matchmaker", "match", nil)
	o.Sp.Record(Span{Trace: "t-2", ID: "s-3", Src: "ca", Name: "submit", Start: t0, End: t0})

	srv, err := o.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var snap Snapshot
	getJSON(t, base+"/metrics", &snap)
	if snap.Counters["collector_queries_total"] != 5 {
		t.Errorf("/metrics counters = %+v", snap.Counters)
	}
	if snap.Histograms["pool_claim_seconds"].Count != 1 {
		t.Errorf("/metrics histograms = %+v", snap.Histograms)
	}

	var recs []Span
	getJSON(t, base+"/trace?id=t-1", &recs)
	var names []string
	for _, r := range recs {
		names = append(names, r.Name)
	}
	if got := strings.Join(names, ","); got != "submit,claim,match" {
		t.Errorf("/trace?id=t-1 = %s, want submit,claim,match", got)
	}
	getJSON(t, base+"/trace?n=2", &recs)
	if len(recs) != 2 {
		t.Errorf("/trace?n=2 returned %d records, want 2", len(recs))
	}

	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
}
