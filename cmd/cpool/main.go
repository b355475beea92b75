// Command cpool runs the pool manager: the collector endpoint plus a
// periodic negotiation cycle (paper §4). It is the only always-on
// service the framework needs, and it is stateless with respect to
// matches: restarting it loses nothing but the in-flight cycle. With
// -store-dir the store survives a restart: advertisements, the
// leadership lease, and the Negotiator ad each cycle publishes, which
// carries the fair-share usage a restarted negotiator loads back
// (cstatus -constraint 'other.Type == "Negotiator"' -long shows it).
// With -ha-name the manager's negotiator half takes part in leader
// election against standby cnegotiator processes.
//
// With -period 0 the manager goes event-driven: negotiation sleeps on
// the ad store's change feed and wakes only when an advertisement
// actually changes, with a periodic full-rebuild fallback (-fallback)
// as the safety net. A quiet pool then costs no negotiation at all.
//
// Usage:
//
//	cpool [-listen ADDR] [-period SECONDS] [-fairshare] [-debug-addr ADDR]
//	cpool -store-dir /var/pool/collector -ha-name mgr
//	cpool -period 0 [-fallback SECONDS]              # event-driven negotiation
//	cpool -collector-only                            # no local negotiation; cnegotiator pair matches
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/collector"
	"repro/internal/matchmaker"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/pool"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9618", "collector listen address")
	period := flag.Int64("period", 300, "negotiation cycle period in seconds (0: event-driven, negotiate on ad changes)")
	fallback := flag.Int64("fallback", 300, "event mode: full-rebuild fallback period in seconds")
	collectorOnly := flag.Bool("collector-only", false, "store ads and arbitrate the lease only; leave matching to cnegotiator")
	fairShare := flag.Bool("fairshare", true, "order customers by past usage")
	historyFile := flag.String("history", "", "append match records (classads) to this file")
	storeDir := flag.String("store-dir", "", "persist the ad store (WAL + snapshots), fair-share usage included, in this directory")
	haName := flag.String("ha-name", "", "enroll in negotiator leader election under this name")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /trace and pprof on this address")
	verbose := flag.Bool("v", false, "log every cycle")
	flag.Parse()

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}
	var history *os.File
	if *historyFile != "" {
		var err error
		history, err = os.OpenFile(*historyFile, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpool: %v\n", err)
			os.Exit(2)
		}
		defer history.Close()
	}
	cfg := pool.ManagerConfig{
		Matchmaker: matchmaker.Config{FairShare: *fairShare},
		Logf:       logf,
		HAName:     *haName,
	}
	if *storeDir != "" {
		store, err := collector.OpenDurable(*storeDir, nil, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpool: opening ad store: %v\n", err)
			os.Exit(2)
		}
		log.Printf("cpool: ad store in %s: %d ad(s) recovered", *storeDir, store.Len())
		cfg.Store = store
	}
	if history != nil {
		cfg.History = history
	}
	if *debugAddr != "" {
		o := obs.New()
		netx.Instrument(o.Registry())
		cfg.Obs = o
		ds, err := o.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpool: debug endpoint: %v\n", err)
			os.Exit(2)
		}
		defer ds.Close()
		log.Printf("cpool: debug endpoint on http://%s", ds.Addr())
	}
	mgr := pool.NewManager(cfg)
	addr, err := mgr.Listen(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpool: %v\n", err)
		os.Exit(2)
	}
	defer mgr.Close()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	if *collectorOnly {
		// Collector-only mode: external cnegotiator processes hold the
		// lease and drive the cycles; this process just stores ads,
		// answers queries, and arbitrates the lease.
		log.Printf("cpool: collector on %s (no local negotiation)", addr)
		<-stop
		log.Printf("cpool: shutting down")
		return
	}
	if *period <= 0 {
		// Event-driven mode: negotiation sleeps on the store's change
		// feed; the fallback timer forces the classic full rebuild.
		el := mgr.StartEvents(time.Duration(*fallback) * time.Second)
		ctx, cancel := context.WithCancel(context.Background())
		go func() { <-stop; cancel() }()
		log.Printf("cpool: collector on %s, event-driven negotiation (fallback every %ds)", addr, *fallback)
		el.Run(ctx)
		log.Printf("cpool: shutting down")
		return
	}
	log.Printf("cpool: collector on %s, negotiating every %ds", addr, *period)
	ticker := time.NewTicker(time.Duration(*period) * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			res := mgr.RunCycle()
			if res.Standby {
				log.Printf("cpool: cycle %d: standby (another negotiator leads)", mgr.Cycles())
				continue
			}
			log.Printf("cpool: cycle %d: %d requests, %d offers, %d matches, %d notified, %d errors",
				mgr.Cycles(), res.Requests, res.Offers, len(res.Matches), res.Notified, len(res.Errors))
			for _, err := range res.Errors {
				log.Printf("cpool:   %v", err)
			}
		case <-stop:
			log.Printf("cpool: shutting down")
			return
		}
	}
}
