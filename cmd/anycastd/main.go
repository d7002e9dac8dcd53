// Command anycastd is the anycast lookup daemon: the paper's public
// anycast map ([21]) served as a high-QPS classification API. At startup
// it builds the world, seeds the probing blacklist, runs a first census
// campaign, and then answers
//
//	GET  /v1/lookup?ip=188.114.97.7     one IP  -> anycast? AS, replicas, cities
//	POST /v1/lookup/batch               JSON list of IPs -> one answer each
//	GET  /v1/snapshot                   index version, census round, counts
//	GET  /v1/stats                      lookup, per-endpoint and refresher counters
//	GET  /metrics                       Prometheus text exposition
//	GET  /healthz                       liveness/readiness
//
// while a background refresher keeps re-running census rounds and
// hot-swaps the index with zero reader downtime: queries issued during a
// refresh answer from the previous snapshot. SIGINT/SIGTERM drain the
// server gracefully.
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

	"anycastmap/internal/bgp"
	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/obs"
	"anycastmap/internal/obs/admin"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
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
	unicast := flag.Int("unicast24s", 6000, "unicast /24 background size")
	rounds := flag.Int("censuses", 2, "census rounds combined per snapshot")
	vpsPer := flag.Int("vps", 261, "vantage points per census round")
	spanTargets := flag.Int("span-targets", 0, "probe/fold unit width in targets (0 = 16384)")
	snapFile := flag.String("snapshot-file", "", "persist snapshots here and serve them mmap-backed; an existing file boots the daemon ready before the first census")
	seed := flag.Uint64("seed", 2015, "world seed")
	rate := flag.Float64("rate", 1000, "probing rate per VP (probes/s)")
	workers := flag.Int("workers", 0, "vantage points probing concurrently (0 = GOMAXPROCS)")
	refresh := flag.Duration("refresh", 15*time.Minute, "background census refresh interval")
	maxInFlight := flag.Int("max-inflight", 256, "maximum concurrently-served requests")
	retries := flag.Int("retries", 3, "per-VP probing attempts per census round (1 disables retrying)")
	retryBackoff := flag.Duration("retry-backoff", 50*time.Millisecond, "base backoff before retrying a failed VP (doubles per retry)")
	faultSeed := flag.Uint64("fault-seed", 0, "fault plan seed (0 = world seed)")
	faultCrash := flag.Float64("fault-crash", 0, "fraction of VPs crashing mid-run per round")
	faultSticky := flag.Float64("fault-crash-sticky", 0, "probability a crashed VP stays down across retries")
	faultFlap := flag.Float64("fault-flap", 0, "fraction of VPs with a total-loss flap window per round")
	faultBurst := flag.Float64("fault-burst", 0, "fraction of VPs with bursty reply loss per round")
	faultOutage := flag.Float64("fault-outage", 0, "fraction of /24s transiently unreachable per round")
	flag.Parse()
	log.SetFlags(0)

	wcfg := netsim.DefaultConfig()
	wcfg.Seed = *seed
	wcfg.Unicast24s = *unicast
	world := netsim.New(wcfg)
	db := cities.Default()
	pl := platform.PlanetLab(db)
	full := hitlist.FromWorld(world)
	log.Printf("world: %d /24s (%d anycast), hitlist %d entries",
		world.NumPrefixes(), len(world.Deployments()), full.Len())

	// Preliminary single-VP census seeds the blacklist (Sec. 3.3).
	black, err := prober.BuildBlacklist(world, pl.VPs()[0], full.Targets(), prober.Config{Seed: *seed})
	if err != nil {
		log.Fatalf("blacklist census: %v", err)
	}
	targets := full.PruneNeverAlive().Without(black.Targets())
	log.Printf("blacklist: %d hosts; pruned target list: %d", black.Len(), targets.Len())

	// Fault injection applies to the census rounds, not the bootstrap
	// blacklist run: a crashed bootstrap would just abort startup.
	if *faultCrash > 0 || *faultFlap > 0 || *faultBurst > 0 || *faultOutage > 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		plan, err := netsim.NewFaultPlan(netsim.FaultConfig{
			Seed:                 fseed,
			CrashFraction:        *faultCrash,
			CrashStickiness:      *faultSticky,
			FlapFraction:         *faultFlap,
			BurstLossFraction:    *faultBurst,
			TargetOutageFraction: *faultOutage,
		})
		if err != nil {
			log.Fatalf("fault plan: %v", err)
		}
		world = world.WithFaults(plan)
		log.Printf("fault injection: crash=%.2f (sticky %.2f) flap=%.2f burst=%.2f outage=%.2f seed=%d",
			*faultCrash, *faultSticky, *faultFlap, *faultBurst, *faultOutage, fseed)
	}

	// One registry serves every layer's series at GET /metrics: the
	// prober's packet counters, the campaign/analyzer instruments, the
	// store/refresher read-throughs and the per-endpoint HTTP series.
	reg := obs.NewRegistry()
	prober.DefaultMetrics.Register(reg)
	prober.RegisterGreylistGauge(reg, black, "blacklist")

	st := store.New(store.Options{})

	// The optional admin listener adds the runtime's profiles and the
	// census browser over the same store, which the public listener never
	// serves. It is up before the first census, so the synchronous initial
	// build can be profiled too.
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

	src := &store.CensusSource{
		World:       world,
		Cities:      db,
		Platform:    pl,
		Table:       bgp.FromWorld(world),
		Registry:    world.Registry,
		Hitlist:     targets,
		Blacklist:   black,
		Rounds:      *rounds,
		VPsPerRound: *vpsPer,
		Seed:        *seed,
		SpanTargets: *spanTargets,
		Metrics:     census.NewMetrics(reg),
		Census: census.Config{
			Seed: *seed, Rate: *rate, Workers: *workers,
			MaxAttempts: *retries, RetryBackoff: *retryBackoff,
		},
	}
	log.Printf("probing with %d concurrent vantage points per census", src.Census.EffectiveWorkers())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	r := store.NewRefresher(st, src, *refresh)
	r.Log = log.Printf
	r.SnapshotPath = *snapFile

	// Warm boot: an existing snapshot file serves immediately (mmap, no
	// census wait); a corrupt or missing file just falls through to the
	// normal cold start. The round counter advances past the file's round
	// so refreshed campaigns stay monotone.
	if *snapFile != "" {
		if snap, err := store.OpenSnapshotFile(*snapFile); err == nil {
			src.SetRound(snap.Round())
			st.Publish(snap)
			log.Printf("warm boot: serving %d anycast /24s from %s (census round %d)",
				snap.Len(), *snapFile, snap.Round())
		} else {
			log.Printf("no usable snapshot file (%v); cold start", err)
		}
	}

	// First snapshot synchronously, so the daemon usually comes up ready.
	// A failed initial build is no longer fatal: Run retries it on a
	// short backoff in the background while /healthz answers "starting",
	// so a transient source error can't keep the daemon down. A warm boot
	// skips the synchronous build; the refresher's ticker takes over.
	if !st.Ready() {
		start := time.Now()
		log.Printf("building initial snapshot (%d census rounds)...", *rounds)
		if !r.RefreshOnce(ctx) {
			log.Printf("initial census failed after %v; serving unready, retrying in background",
				time.Since(start).Round(time.Millisecond))
		}
	}
	go r.Run(ctx)

	// Routing front-end: the serving-side consumer of the map. It shares
	// the store (so hot snapshot swaps steer traffic immediately), the
	// world seed (so the synthetic client locator agrees with netsim) and
	// the metrics registry (anycastmap_route_* series).
	if *dnsAddr != "" {
		eng, err := route.NewEngine(route.Config{
			Store:   st,
			Locator: route.HashLocator{Seed: *seed},
			VPs:     pl.VPs(),
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

	api := store.NewAPI(st, r, store.APIConfig{MaxInFlight: *maxInFlight, Metrics: reg})
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

	log.Printf("anycastd serving on http://%s/ (refresh every %v)", *addr, *refresh)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	log.Printf("bye: %d lookups served, %d snapshot swaps", st.Stats().Lookups, st.Stats().Swaps)
}
