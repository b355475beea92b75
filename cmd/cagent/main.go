// Command cagent runs one agent daemon: a Resource-owner Agent serving
// the claiming protocol for a machine described by a classad file, or
// a Customer Agent accepting job submissions and claiming matched
// resources.
//
// Usage:
//
//	cagent -resource machine.ad [-listen ADDR] [-pool ADDR] [-period S] [-challenge] [-debug-addr ADDR]
//	cagent -customer OWNER      [-listen ADDR] [-pool ADDR] [-period S] [-debug-addr ADDR]
//
// Both periodically advertise to the pool's collector (Figure 3
// step 1) and then react to the matchmaking and claiming protocols.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/classad"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/pool"
)

func main() {
	resourceFile := flag.String("resource", "", "run a resource-owner agent for this machine ad file")
	customer := flag.String("customer", "", "run a customer agent for this owner")
	listen := flag.String("listen", "127.0.0.1:0", "agent listen address")
	poolAddr := flag.String("pool", "127.0.0.1:9618", "collector address")
	period := flag.Int64("period", 300, "advertising period in seconds")
	challenge := flag.Bool("challenge", false, "RA only: require HMAC challenge-response at claim time")
	flock := flag.String("flock", "", "CA only: comma-separated additional pool collectors to flock to")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /trace and pprof on this address")
	flag.Parse()

	switch {
	case *resourceFile != "" && *customer != "":
		fatalf("-resource and -customer are mutually exclusive")
	case *resourceFile != "":
		runResource(*resourceFile, *listen, *poolAddr, *period, *challenge, *debugAddr)
	case *customer != "":
		runCustomer(*customer, *listen, *poolAddr, *period, *flock, *debugAddr)
	default:
		fatalf("one of -resource or -customer is required")
	}
}

// startDebug brings up the observability endpoint when requested; the
// returned Obs is nil (all hooks no-op) when debugAddr is empty.
func startDebug(debugAddr string) *obs.Obs {
	if debugAddr == "" {
		return nil
	}
	o := obs.New()
	netx.Instrument(o.Registry())
	ds, err := o.ServeDebug(debugAddr)
	if err != nil {
		fatalf("debug endpoint: %v", err)
	}
	log.Printf("cagent: debug endpoint on http://%s", ds.Addr())
	return o
}

func runResource(file, listen, poolAddr string, period int64, challenge bool, debugAddr string) {
	data, err := os.ReadFile(file)
	if err != nil {
		fatalf("%v", err)
	}
	base, err := classad.Parse(string(data))
	if err != nil {
		fatalf("%s: %v", file, err)
	}
	ra := agent.NewResource(base, nil)
	// Time-derived attributes (DayTime for the Figure 1 night
	// policy) track the clock rather than freezing at startup.
	ra.PublishClock()
	d := pool.NewResourceDaemon(ra, poolAddr, 3*period, log.Printf)
	d.RequireChallenge = challenge
	if o := startDebug(debugAddr); o != nil {
		d.Instrument(o)
	}
	contact, err := d.Listen(listen)
	if err != nil {
		fatalf("%v", err)
	}
	defer d.Close()
	log.Printf("cagent: RA %q serving claims on %s", ra.Name(), contact)
	loop(period, func() {
		if err := d.Advertise(); err != nil {
			log.Printf("cagent: advertise: %v", err)
		}
	}, func() {
		if err := d.Invalidate(); err != nil {
			log.Printf("cagent: invalidate: %v", err)
		}
	})
}

func runCustomer(owner, listen, poolAddr string, period int64, flock, debugAddr string) {
	ca := agent.NewCustomer(owner, nil)
	d := pool.NewCustomerDaemon(ca, poolAddr, 3*period, log.Printf)
	if o := startDebug(debugAddr); o != nil {
		d.Instrument(o)
	}
	if flock != "" {
		for _, target := range strings.Split(flock, ",") {
			if target = strings.TrimSpace(target); target != "" {
				d.AddFlockTarget(target)
				log.Printf("cagent: flocking to %s", target)
			}
		}
	}
	contact, err := d.Listen(listen)
	if err != nil {
		fatalf("%v", err)
	}
	defer d.Close()
	log.Printf("cagent: CA for %q accepting submissions on %s", owner, contact)
	loop(period, func() {
		if err := d.AdvertiseIdle(); err != nil {
			log.Printf("cagent: advertise: %v", err)
		}
		counts := ca.Counts()
		log.Printf("cagent: queue: %d idle, %d running, %d completed",
			counts[agent.JobIdle], counts[agent.JobRunning], counts[agent.JobCompleted])
	}, nil)
}

// loop runs tick immediately and then every period seconds until
// SIGINT, after which cleanup (if any) runs.
func loop(period int64, tick func(), cleanup func()) {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	tick()
	ticker := time.NewTicker(time.Duration(period) * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			tick()
		case <-stop:
			if cleanup != nil {
				cleanup()
			}
			return
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cagent: "+format+"\n", args...)
	os.Exit(2)
}
