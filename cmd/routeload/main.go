// Command routeload drives load at a routing front-end (anycastd -dns)
// and reports throughput and latency percentiles. Two shapes:
//
//	routeload -addr 127.0.0.1:5300 -service 10.10.0.0 -n 100000
//	    closed loop: each worker sends, waits, repeats
//	routeload -addr 127.0.0.1:5300 -service 10.10.0.0 -rate 50000 -d 10s
//	    open loop: paced senders, answers matched by DNS ID
//
// The -json flag emits the LoadResult for scripting (route_smoke.sh
// consumes it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"anycastmap/internal/netsim"
	"anycastmap/internal/route"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5300", "front-end UDP address")
	service := flag.String("service", "", "service prefix to query, e.g. 10.10.0.0 (required)")
	n := flag.Int("n", 100000, "closed-loop query count")
	rate := flag.Float64("rate", 0, "open-loop rate in queries/s (0 = closed loop)")
	dur := flag.Duration("d", 2*time.Second, "open-loop duration")
	workers := flag.Int("workers", 4, "concurrent workers")
	clients := flag.Int("clients", 1024, "distinct synthetic client /24s")
	policy := flag.String("policy", "", "policy label to prefix (empty = server default chain)")
	zone := flag.String("zone", route.DefaultZone, "zone suffix to query under")
	txt := flag.Bool("txt", false, "ask TXT (decision description) instead of A")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	flag.Parse()
	log.SetFlags(0)

	if *service == "" {
		log.Fatal("routeload: -service is required (e.g. -service 10.10.0.0)")
	}
	ip, err := netsim.ParseIP(*service)
	if err != nil {
		log.Fatalf("routeload: bad -service: %v", err)
	}
	var pol route.Policy
	if *policy != "" {
		if pol, err = route.ParsePolicy(*policy); err != nil {
			log.Fatalf("routeload: %v", err)
		}
	}
	cfg := route.LoadConfig{
		Addr:     *addr,
		Workers:  *workers,
		Queries:  *n,
		Duration: *dur,
		RatePerS: *rate,
		Service:  ip.Prefix(),
		Clients:  *clients,
		Policy:   pol,
		Zone:     *zone,
	}
	if *txt {
		cfg.QType = 16
	}

	res, err := route.Run(cfg)
	if err != nil {
		log.Fatalf("routeload: %v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Println(res)
	}
	if res.Received == 0 {
		os.Exit(1)
	}
}
