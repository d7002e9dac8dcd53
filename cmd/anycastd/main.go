// Command anycastd is the anycast lookup daemon: the paper's public
// anycast map ([21]) served as a high-QPS classification API. It runs no
// census of its own: `census -snapshot FILE` produces the map, and
// `anycastd -snapshot-file FILE` decodes that file into memory and answers
//
//	GET  /v1/lookup?ip=188.114.97.7     one IP  -> anycast? AS, replicas, cities
//	POST /v1/lookup/batch               JSON list of IPs -> one answer each
//	GET  /v1/snapshot                   index version, census round, counts
//	GET  /v1/stats                      lookup, per-endpoint and reload counters
//	GET  /metrics                       Prometheus text exposition
//	GET  /healthz                       liveness/readiness
//
// Once a second it stats the file; when a new census replaced it, the new
// file is validated and hot-swapped in with zero reader downtime, and a
// file that fails validation never replaces the one being served.
// SIGINT/SIGTERM drain the server gracefully.
//
// With -admin ADDR a second, private listener serves /metrics again, the
// Go runtime's profiles under /debug/pprof/ and the census browser (an
// HTML index at /, JSON at /api/findings, per-deployment GeoJSON at
// /api/geojson?prefix=A.B.C.0/24, the paper's public dataset site [21]);
// the public listener serves none of them.
//
// With -dns ADDR the daemon also serves the DNS/UDP routing front-end
// (package route): A/TXT queries for <a>.<b>.<c>.<zone> steer clients
// to deployment replicas under the census-informed policy chain.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/obs"
	"anycastmap/internal/obs/admin"
	"anycastmap/internal/platform"
	"anycastmap/internal/route"
	"anycastmap/internal/store"
	"anycastmap/internal/webview"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address")
	adminAddr := flag.String("admin", "", "serve GET /metrics, /debug/pprof/ and the census browser on this private address (empty = disabled)")
	dnsAddr := flag.String("dns", "", "serve the DNS/UDP routing front-end on this address (empty = disabled)")
	dnsListeners := flag.Int("dns-listeners", 0, "SO_REUSEPORT UDP listeners for the routing front-end (0 = GOMAXPROCS)")
	dnsZone := flag.String("dns-zone", route.DefaultZone, "zone suffix the routing front-end answers for")
	snapFile := flag.String("snapshot-file", "", "serve the snapshot file `census -snapshot` writes here, reloading it when a new census replaces it (required)")
	maxInFlight := flag.Int("max-inflight", 256, "maximum concurrently-served requests (0 = 256)")
	seed := flag.Uint64("seed", 2015, "seed of the routing front-end's synthetic client locator (HashLocator)")
	flag.Parse()
	log.SetFlags(0)

	// A value no flag can mean is refused before anything is served, with
	// a first log line naming the flag.
	apiCfg := store.APIConfig{MaxInFlight: *maxInFlight}
	if err := apiCfg.Validate(); err != nil {
		log.Fatalf("max-inflight: %v", err)
	}
	if err := (route.ServerConfig{Listeners: *dnsListeners}).Validate(); err != nil {
		log.Fatalf("dns-listeners: %v", err)
	}

	if *snapFile == "" {
		log.Fatal("anycastd serves a census map: run `census -snapshot FILE` and pass -snapshot-file FILE")
	}

	// One registry serves the store, reload, routing and per-endpoint HTTP
	// series at GET /metrics.
	reg := obs.NewRegistry()
	st := store.New(store.Options{})

	// The optional admin listener adds the runtime's profiles and the
	// census browser over the same store, which the public listener never
	// serves.
	if *adminAddr != "" {
		web, err := webview.New(st)
		if err != nil {
			log.Fatal(err)
		}
		mux := admin.Mux(reg)
		mux.Handle("/", web)
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			log.Fatalf("admin listen: %v", err)
		}
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("admin server: %v", err)
			}
		}()
		log.Printf("admin on http://%s/ (/metrics, /debug/pprof/, census browser at /)", ln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The file is read once now, so an existing map serves from the first
	// request; without one /healthz answers 503 "starting" until a census
	// writes it.
	rl := store.NewReloader(st, *snapFile)
	rl.Log = log.Printf
	if !rl.Check() {
		log.Printf("no servable snapshot at %s yet; /healthz answers 503 until `census -snapshot %s` writes one",
			*snapFile, *snapFile)
	}
	go rl.Run(ctx)

	// Routing front-end: the serving-side consumer of the map. It shares
	// the store (so hot snapshot swaps steer traffic immediately) and the
	// metrics registry (anycastmap_route_* series); the platform's
	// coordinates place each replica's isolating vantage point.
	if *dnsAddr != "" {
		eng, err := route.NewEngine(route.Config{
			Store:   st,
			Locator: route.HashLocator{Seed: *seed},
			VPs:     platform.PlanetLab(cities.Default()).VPs(),
		})
		if err != nil {
			log.Fatalf("routing engine: %v", err)
		}
		dnsSrv, err := route.NewServer(route.ServerConfig{
			Addr:      *dnsAddr,
			Listeners: *dnsListeners,
			Engine:    eng,
			Zone:      *dnsZone,
			Metrics:   route.NewMetrics(reg),
		})
		if err != nil {
			log.Fatalf("routing front-end: %v", err)
		}
		go func() {
			<-ctx.Done()
			dnsSrv.Close()
		}()
		log.Printf("routing front-end on udp://%s/ (%d listeners, zone %s)",
			dnsSrv.Addr(), dnsSrv.Listeners(), *dnsZone)
	}

	apiCfg.Metrics = reg
	api := store.NewAPI(st, rl, apiCfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		<-ctx.Done()
		log.Printf("signal received, draining...")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("anycastd serving %s on http://%s/", *snapFile, *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	log.Printf("bye: %d lookups served, %d snapshot swaps", st.Stats().Lookups, st.Stats().Swaps)
}
