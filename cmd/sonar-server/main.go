// Command sonar-server hosts the distributed campaign service: an HTTP+JSON
// API that accepts campaign specs (a named built-in DUT or FIRRTL text),
// splits fuzzing campaigns into shard leases for sonar-worker processes,
// folds reported results in canonical order, and serves per-campaign
// events, stats, checkpoints, and Prometheus metrics.
//
// The full API reference and operator runbook are in docs/SERVICE.md.
//
// Usage:
//
//	sonar-server [-addr :8714] [-lease-ttl 30s]
//
// An expired lease is re-offered; the engine's bound of two re-offers per
// shard per round applies, and the third expiry abandons the shard.
//
// Examples:
//
//	sonar-server                                  # defaults, all built-in DUTs
//	sonar-server -addr 127.0.0.1:8714             # loopback only
//	sonar-server -lease-ttl 2m                    # slow workers
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"sonar/internal/fleet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sonar-server: ")
	var (
		addr     = flag.String("addr", ":8714", "listen address for the HTTP API")
		leaseTTL = flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "shard lease time-to-live; workers renew at a third of it, so it must comfortably exceed one batch's execution time (docs/SERVICE.md)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %v", flag.Args())
	}

	ct := fleet.NewController(fleet.Config{LeaseTTL: *leaseTTL})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           fleet.NewServer(ct),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("serving campaign API on %s (lease TTL %v)", *addr, *leaseTTL)
	log.Fatal(srv.ListenAndServe())
}
