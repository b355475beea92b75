// Command cnegotiator runs a standalone negotiator against a remote
// collector. Run two of them (or one next to a cpool started with
// -ha-name) for a highly available matchmaker: each heartbeat they
// compete for the leadership lease the collector arbitrates, the
// winner negotiates and stamps its lease epoch into every MATCH, and
// the loser stands by. The leader publishes the fair-share table in
// its Negotiator ad at the end of every cycle, and a negotiator that
// takes over loads it from the collector, so a takeover starts with
// every charge of the dead leader's last published cycle. The paper's
// soft-state design (§4.3) does the rest: everything else a dead
// negotiator knew is rebuilt from the agents' periodic advertisements.
//
// Usage:
//
//	cnegotiator -name nego-1 -pool HOST:9618 [-period SECONDS] [-fallback-heartbeats N]
package main

import (
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
	name := flag.String("name", "", "this negotiator's identity in leader election (required)")
	poolAddr := flag.String("pool", "127.0.0.1:9618", "collector address")
	period := flag.Int64("period", 60, "heartbeat/negotiation period in seconds")
	fallbackEvery := flag.Int64("fallback-heartbeats", 10, "force a negotiation every N heartbeats even if the collector's pool-change counter has not moved (0: never)")
	fairShare := flag.Bool("fairshare", true, "order customers by past usage")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /trace and pprof on this address")
	verbose := flag.Bool("v", false, "log every tick")
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "cnegotiator: -name is required (each negotiator needs a distinct identity)")
		os.Exit(2)
	}

	d := pool.NewNegotiatorDaemon(*name, &collector.Client{Addr: *poolAddr},
		matchmaker.Config{FairShare: *fairShare})
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
