// Command cnegotiator runs a standalone negotiator against a remote
// collector. Run two of them (or one next to a cpool started with
// -ha-name) for a highly available matchmaker: each heartbeat they
// compete for the leadership lease the collector arbitrates, the
// winner negotiates and stamps its lease epoch into every MATCH, and
// the loser stands by, warm-syncing the leader's fair-share ledger so
// a takeover starts with up-to-date accounting. The paper's soft-state
// design (§4.3) does the rest: everything else a dead negotiator knew
// is rebuilt from the agents' periodic advertisements.
//
// Usage:
//
//	cnegotiator -name nego-1 -pool HOST:9618 [-period SECONDS] [-usage-dir DIR]
//	            [-state ADDR] [-peer http://HOST:PORT] [-lease-ttl SECONDS]
//	            [-fallback-heartbeats N]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
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
	name := flag.String("name", "", "this negotiator's identity in leader election (required)")
	poolAddr := flag.String("pool", "127.0.0.1:9618", "collector address")
	period := flag.Int64("period", 60, "heartbeat/negotiation period in seconds")
	fallbackEvery := flag.Int64("fallback-heartbeats", 10, "force a negotiation every N heartbeats even if the collector's pool-change counter has not moved (0: never)")
	leaseTTL := flag.Int64("lease-ttl", 0, "requested lease duration in seconds (0 for the collector's default)")
	fairShare := flag.Bool("fairshare", true, "order customers by past usage")
	aggregate := flag.Bool("aggregate", false, "enable group matching over regular ads")
	usageDir := flag.String("usage-dir", "", "persist fair-share accounting as a durable ledger in this directory")
	stateAddr := flag.String("state", "", "serve the warm-handoff state endpoint on this address")
	peer := flag.String("peer", "", "peer negotiator's state URL (http://host:port) to warm-sync from while standby")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /trace and pprof on this address")
	verbose := flag.Bool("v", false, "log every tick")
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "cnegotiator: -name is required (each negotiator needs a distinct identity)")
		os.Exit(2)
	}

	var ledger *matchmaker.UsageLedger
	if *usageDir != "" {
		var err error
		ledger, err = matchmaker.OpenUsageLedger(*usageDir, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cnegotiator: opening usage ledger: %v\n", err)
			os.Exit(2)
		}
	}
	d := pool.NewNegotiatorDaemon(*name, &collector.Client{Addr: *poolAddr}, ledger,
		matchmaker.Config{FairShare: *fairShare, Aggregate: *aggregate})
	defer d.Close()
	d.LeaseTTL = *leaseTTL
	d.PeerState = *peer
	if *verbose {
		d.Logf = log.Printf
	}
	if *debugAddr != "" {
		o := obs.New()
		netx.Instrument(o.Registry())
		d.Instrument(o)
		ds, err := o.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cnegotiator: debug endpoint: %v\n", err)
			os.Exit(2)
		}
		defer ds.Close()
		log.Printf("cnegotiator: debug endpoint on http://%s", ds.Addr())
	}
	if *stateAddr != "" {
		ln, err := net.Listen("tcp", *stateAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cnegotiator: state endpoint: %v\n", err)
			os.Exit(2)
		}
		log.Printf("cnegotiator: state endpoint on http://%s", d.ServeState(ln))
	}
	log.Printf("cnegotiator: %s heartbeating %s every %ds", *name, *poolAddr, *period)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	ticker := time.NewTicker(time.Duration(*period) * time.Second)
	defer ticker.Stop()
	var beats int64
	for {
		select {
		case <-ticker.C:
			// The lease heartbeat carries the collector's pool-change
			// counter; an unchanged pool skips the cycle. Every
			// -fallback-heartbeats ticks one is forced anyway — the
			// remote analogue of the in-process fallback rebuild.
			beats++
			res := d.Tick(*fallbackEvery > 0 && beats%*fallbackEvery == 0)
			if res.Standby {
				log.Printf("cnegotiator: %s", d)
				continue
			}
			if res.Skipped {
				if *verbose {
					log.Printf("cnegotiator: epoch %d: pool unchanged, cycle skipped", res.Epoch)
				}
				continue
			}
			log.Printf("cnegotiator: epoch %d cycle: %d requests, %d offers, %d matches, %d notified, %d errors",
				res.Epoch, res.Requests, res.Offers, len(res.Matches), res.Notified, len(res.Errors))
			for _, err := range res.Errors {
				log.Printf("cnegotiator:   %v", err)
			}
		case <-stop:
			log.Printf("cnegotiator: shutting down (%s)", d)
			return
		}
	}
}
