// Command cstatus browses a pool through one-way queries (paper §4:
// "there are tools to check on the status of job queues and browse
// existing resources").
//
// Usage:
//
//	cstatus -pool HOST:PORT [-constraint 'EXPR'] [-long] [-type Machine]
//	cstatus -debug-addr HOST:PORT -metrics
//	cstatus -debug-addr HOST:PORT -trace TRACE-ID
//	cstatus -debug-addr HOST:PORT -why OWNER/jobN
//
// The constraint is evaluated with `other` bound to each stored ad;
// ads for which it is true are printed. The -metrics, -trace and -why
// modes talk to a daemon's observability endpoint (its -debug-addr)
// instead of the collector: -metrics dumps the metric registry with
// latency quantiles, -trace renders one job's story from the ID csubmit
// printed — the span tree with per-hop latencies (submission, collector
// storage, negotiation, claim, verdict) and the daemons' log entries as
// timed leaves — and -why prints the matchmaker's rejection ledger for
// a request, with its trace ID: per offer, which constraint conjunct
// failed, who outranked it, or which posting list pruned it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/classad"
	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/obs"
)

func main() {
	poolAddr := flag.String("pool", "127.0.0.1:9618", "collector address")
	constraint := flag.String("constraint", "true", "query constraint over other.*")
	typeFilter := flag.String("type", "", "restrict to ads of this Type")
	long := flag.Bool("long", false, "print whole ads instead of a summary table")
	attrs := flag.String("attrs", "", "comma-separated projection: fetch only these attributes")
	debugAddr := flag.String("debug-addr", "", "daemon observability endpoint for -metrics / -trace")
	metrics := flag.Bool("metrics", false, "print the daemon's metric registry")
	trace := flag.String("trace", "", "render the span tree and log entries of this trace ID")
	why := flag.String("why", "", "explain why this request went unmatched (rejection ledger)")
	ha := flag.Bool("ha", false, "show negotiator leadership: leader, epoch, lease deadline (add -debug-addr for daemon health and durability metrics)")
	flag.Parse()

	if *ha {
		showHA(*poolAddr, *debugAddr)
		return
	}

	if *metrics || *trace != "" || *why != "" {
		if *debugAddr == "" {
			fatalf("-metrics, -trace and -why need -debug-addr (the daemon's debug endpoint)")
		}
		if *metrics {
			showMetrics(*debugAddr)
		}
		if *trace != "" {
			showTrace(*debugAddr, *trace)
		}
		if *why != "" {
			showWhy(*debugAddr, *why)
		}
		return
	}

	src := *constraint
	if *typeFilter != "" {
		src = fmt.Sprintf("(%s) && other.Type == %q", src, *typeFilter)
	}
	query := classad.NewAd()
	if err := query.SetExprString(classad.AttrConstraint, src); err != nil {
		fatalf("bad constraint: %v", err)
	}
	client := &collector.Client{Addr: *poolAddr}
	var projection []string
	if *attrs != "" {
		for _, a := range strings.Split(*attrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				projection = append(projection, a)
			}
		}
	}
	ads, err := client.QueryProject(query, projection)
	if err != nil {
		fatalf("%v", err)
	}
	if len(projection) > 0 {
		// Projected output: print the requested attributes as-is.
		for _, ad := range ads {
			fmt.Println(ad)
		}
		fmt.Printf("%d ad(s)\n", len(ads))
		return
	}
	if *long {
		for _, ad := range ads {
			fmt.Println(ad.Pretty())
			fmt.Println()
		}
		fmt.Printf("%d ad(s)\n", len(ads))
		return
	}
	fmt.Printf("%-28s %-8s %-12s %-10s %6s %8s\n",
		"NAME", "TYPE", "STATE", "ARCH", "MEMORY", "MIPS")
	type archState struct{ arch, state string }
	totals := make(map[archState]int)
	for _, ad := range ads {
		fmt.Printf("%-28s %-8s %-12s %-10s %6s %8s\n",
			str(ad, "Name"), str(ad, "Type"), str(ad, "State"),
			str(ad, "Arch"), num(ad, "Memory"), num(ad, "Mips"))
		totals[archState{str(ad, "Arch"), str(ad, "State")}]++
	}
	fmt.Printf("%d ad(s)\n", len(ads))
	if len(totals) > 1 {
		fmt.Println("\nTotals by architecture and state:")
		keys := make([]archState, 0, len(totals))
		for k := range totals {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].arch != keys[j].arch {
				return keys[i].arch < keys[j].arch
			}
			return keys[i].state < keys[j].state
		})
		for _, k := range keys {
			fmt.Printf("  %-10s %-12s %5d\n", k.arch, k.state, totals[k])
		}
	}
}

// showHA queries the collector for negotiator ads — the negotiators
// advertise themselves like any other entity (paper §4) — and prints
// the pool's leadership picture: who leads, under which epoch, until
// when. With a debug endpoint it appends the durability counters
// (store_* WAL and snapshot activity, negotiator_failovers_total).
func showHA(poolAddr, debugAddr string) {
	query := classad.NewAd()
	if err := query.SetExprString(classad.AttrConstraint, `other.Type == "Negotiator"`); err != nil {
		fatalf("%v", err)
	}
	client := &collector.Client{Addr: poolAddr}
	ads, err := client.Query(query)
	if err != nil {
		fatalf("%v", err)
	}
	if len(ads) == 0 {
		fmt.Println("no negotiator has advertised yet")
	} else {
		fmt.Printf("%-24s %-12s %6s %14s %7s %8s\n",
			"NEGOTIATOR", "LEADER", "EPOCH", "LEASE-DEADLINE", "CYCLE", "MATCHES")
		for _, ad := range ads {
			deadline := "-"
			if d, ok := ad.Eval("LeaseDeadline").IntVal(); ok && d > 0 {
				deadline = time.Unix(d, 0).Format("15:04:05")
			}
			fmt.Printf("%-24s %-12s %6s %14s %7s %8s\n",
				str(ad, "Name"), str(ad, "Leader"), num(ad, "Epoch"),
				deadline, num(ad, "Cycle"), num(ad, "LastMatches"))
		}
	}
	if debugAddr == "" {
		return
	}
	// Daemon health via absent-ad detection: every daemon advertises a
	// Daemon-type classad of its own vital signs; one that stops
	// re-advertising turns "missing" here instead of silently vanishing.
	var daemons []collector.DaemonStatus
	if err := tryJSON(debugAddr, "/daemons", &daemons); err == nil && len(daemons) > 0 {
		fmt.Println("\nDaemon health (self-ads):")
		fmt.Printf("  %-32s %-12s %-8s %s\n", "DAEMON", "KIND", "STATUS", "OVERDUE")
		for _, d := range daemons {
			overdue := "-"
			if d.Status != "ok" {
				overdue = fmt.Sprintf("%ds", d.OverdueSeconds)
			}
			fmt.Printf("  %-32s %-12s %-8s %s\n", d.Name, d.Kind, d.Status, overdue)
		}
	}
	var snap obs.Snapshot
	fetchJSON(debugAddr, "/metrics", &snap)
	fmt.Println("\nDurability:")
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		if strings.HasPrefix(name, "store_") || strings.HasPrefix(name, "negotiator_") ||
			name == "pool_fenced_matches_total" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-42s %12d\n", name, snap.Counters[name])
	}
	for name, v := range snap.Gauges {
		if name == "negotiator_leader_epoch" {
			fmt.Printf("  %-42s %12g\n", name, v)
		}
	}
	if h, ok := snap.Histograms["store_fsync_seconds"]; ok && h.Count > 0 {
		fmt.Printf("  %-42s %12d  mean=%.6gs\n", "store_fsync_seconds", h.Count, h.Sum/float64(h.Count))
	}
}

// fetchJSON GETs one debug-endpoint path and decodes the reply.
func fetchJSON(addr, path string, out any) {
	if err := tryJSON(addr, path, out); err != nil {
		fatalf("%v", err)
	}
}

// tryJSON is fetchJSON returning errors instead of exiting, for paths
// that are allowed to be absent (an older daemon without the handler).
func tryJSON(addr, path string, out any) error {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// showMetrics prints a daemon's whole metric registry: counters and
// gauges as a sorted table, histograms with count, sum and mean.
func showMetrics(addr string) {
	var snap obs.Snapshot
	fetchJSON(addr, "/metrics", &snap)
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-44s %12d\n", name, snap.Counters[name])
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-44s %12g\n", name, snap.Gauges[name])
	}
	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		if h.Count == 0 {
			fmt.Printf("%-44s %12d\n", name, h.Count)
			continue
		}
		fmt.Printf("%-44s %12d  mean=%.6g p50=%.6g p95=%.6g p99=%.6g\n",
			name, h.Count, h.Sum/float64(h.Count), h.P50, h.P95, h.P99)
	}
}

// showTrace renders one causal trace as a tree: the submission at the
// root, each later hop (collector storage, negotiation, claim, verdict)
// indented under its parent with its duration and its latency relative
// to the trace's first record. Log entries (zero-length spans with no
// ID) are timed leaves: each hangs under the latest span its component
// opened in the trace before it. A span whose parent never reached this
// daemon's rings (dropped, or recorded elsewhere) roots its own subtree
// rather than vanishing.
func showTrace(addr, id string) {
	var recs []obs.Span // merged by start time
	fetchJSON(addr, "/trace?id="+url.QueryEscape(id), &recs)
	if len(recs) == 0 {
		fmt.Printf("no spans for %s\n", id)
		return
	}
	fmt.Printf("trace %s: %d record(s)\n", id, len(recs))
	known := make(map[string]bool, len(recs))
	for _, sp := range recs {
		if sp.ID != "" {
			known[sp.ID] = true
		}
	}
	var roots []obs.Span
	children := make(map[string][]obs.Span)
	lastOpened := make(map[string]string) // Src -> ID of its latest span
	for _, sp := range recs {
		parent := sp.Parent
		if sp.ID == "" {
			parent = lastOpened[sp.Src]
		} else {
			lastOpened[sp.Src] = sp.ID
		}
		if !known[parent] {
			roots = append(roots, sp)
			continue
		}
		children[parent] = append(children[parent], sp)
	}
	origin := recs[0].Start
	var render func(sp obs.Span, depth int)
	render = func(sp obs.Span, depth int) {
		status := ""
		if sp.Err != "" {
			status = "  ERROR: " + sp.Err
		}
		var fields []string
		for k := range sp.Fields {
			fields = append(fields, k)
		}
		sort.Strings(fields)
		var b strings.Builder
		for _, k := range fields {
			fmt.Fprintf(&b, " %s=%s", k, sp.Fields[k])
		}
		fmt.Printf("%s%-12s %-14s +%-9s %8s%s%s\n",
			strings.Repeat("  ", depth), sp.Src, sp.Name,
			sp.Start.Sub(origin).Round(time.Microsecond),
			sp.End.Sub(sp.Start).Round(time.Microsecond), b.String(), status)
		for _, kid := range children[sp.ID] {
			render(kid, depth+1)
		}
	}
	for _, root := range roots {
		render(root, 0)
	}
}

// showWhy prints the matchmaker's forensics for one request: matched
// (to whom, claimed or not) or the per-offer rejection ledger — which
// constraint conjunct failed, who outranked it, which posting list
// pruned it before the scan.
func showWhy(addr, request string) {
	var report matchmaker.Report
	if err := tryJSON(addr, "/why?request="+url.QueryEscape(request), &report); err != nil {
		var index struct {
			Requests []string `json:"requests"`
		}
		if lerr := tryJSON(addr, "/why", &index); lerr == nil && len(index.Requests) > 0 {
			fmt.Fprintf(os.Stderr, "cstatus: %v\nrequests with forensics: %s\n",
				err, strings.Join(index.Requests, ", "))
			os.Exit(2)
		}
		fatalf("%v", err)
	}
	when := report.Time.Format("15:04:05.000")
	who := report.Request
	if report.Trace != "" {
		who += " (trace " + report.Trace + ")"
	}
	if report.Matched {
		claimed := ""
		if report.Claimed {
			claimed = " (offer was already claimed; claim-time revalidation decides)"
		}
		fmt.Printf("request %s: matched to %s at %s%s\n", who, report.Offer, when, claimed)
	} else {
		fmt.Printf("request %s: unmatched at %s: %s\n", who, when, report.Reason)
	}
	if len(report.Ledger) > 0 {
		fmt.Println("per-offer verdicts:")
		for _, v := range report.Ledger {
			detail := ""
			if v.Detail != "" {
				detail = "  " + v.Detail
			}
			fmt.Printf("  %-28s %-18s%s\n", v.Offer, v.Outcome, detail)
		}
	}
	if report.Truncated {
		fmt.Println("(ledger truncated: more offers were examined than recorded)")
	}
}

func str(ad *classad.Ad, attr string) string {
	if s, ok := ad.Eval(attr).StringVal(); ok {
		return s
	}
	return "-"
}

func num(ad *classad.Ad, attr string) string {
	v := ad.Eval(attr)
	if n, ok := v.NumberVal(); ok {
		return fmt.Sprintf("%g", n)
	}
	return "-"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cstatus: "+format+"\n", args...)
	os.Exit(2)
}
