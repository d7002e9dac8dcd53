// Command censusd is the distributed census control plane: the same
// census cmd/census runs in one process, split into a coordinator that
// leases target shards and folds the streamed results, and agents that
// own vantage points and probe on its behalf (ROADMAP items 1–2; the
// paper's PlanetLab topology, Sec. 3).
//
// Modes:
//
//	censusd -listen :7624            coordinator serving TCP agents
//	censusd -agent -connect HOST:7624 one agent process
//	censusd -local 4                  coordinator + 4 agents in-process
//
// The -local mode is the deterministic testbed: agents run in the same
// process over net.Pipe (or real TCP loopback with -transport tcp),
// optionally with injected churn (-churn-every) and VP crash faults,
// and -verify holds the distributed result to byte-identity with a
// zero-fault single-process campaign.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"reflect"
	"time"

	"anycastmap/internal/analysis"
	"anycastmap/internal/bgp"
	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/cluster"
	"anycastmap/internal/core"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/obs"
	"anycastmap/internal/obs/admin"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

func main() {
	// Topology.
	listen := flag.String("listen", "", "coordinator mode: serve agents on this TCP address")
	agent := flag.Bool("agent", false, "agent mode: execute leases for a remote coordinator")
	connect := flag.String("connect", "", "agent mode: coordinator address")
	local := flag.Int("local", 0, "local mode: run a coordinator plus N in-process agents")
	transport := flag.String("transport", "pipe", "local mode transport: pipe or tcp")
	name := flag.String("name", "agent", "agent name")
	capacity := flag.Int("capacity", 2, "leases an agent executes concurrently")
	minAgents := flag.Int("min-agents", 1, "coordinator mode: agents required before the census starts")

	// Census shape (mirrors cmd/census).
	unicast := flag.Int("unicast24s", 20000, "unicast /24 background size")
	rounds := flag.Int("censuses", 4, "number of census rounds")
	vpsPer := flag.Int("vps", 261, "vantage points per census")
	seed := flag.Uint64("seed", 2015, "world seed")
	rate := flag.Float64("rate", 1000, "probing rate per VP (probes/s)")
	retries := flag.Int("retries", 3, "per-VP probing attempts per census round (re-lease budget)")
	retryBackoff := flag.Duration("retry-backoff", 50*time.Millisecond, "base backoff before re-leasing a failed VP")

	// Cluster tuning.
	shardTargets := flag.Int("shard-targets", 0, "lease width in targets (0 = 16384, the in-process executor's span width)")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "how long an agent may hold a lease")
	heartbeat := flag.Duration("heartbeat", time.Second, "agent heartbeat interval")
	metricsAddr := flag.String("metrics", "", "coordinator modes: serve GET /metrics and /debug/pprof/ on this admin address")

	// Failure weather (local mode).
	churnEvery := flag.Int("churn-every", 0, "kill each agent's connection after this many row frames")
	respawn := flag.Bool("respawn", true, "respawn agents that die")
	exitOnCrash := flag.Bool("exit-on-crash", false, "an injected VP crash kills the whole agent")
	faultSeed := flag.Uint64("fault-seed", 0, "fault plan seed (0 = world seed)")
	faultCrash := flag.Float64("fault-crash", 0, "fraction of VPs crashing mid-run per round")
	faultSticky := flag.Float64("fault-crash-sticky", 0, "probability a crashed VP stays down across retries")
	faultFlap := flag.Float64("fault-flap", 0, "fraction of VPs with a total-loss flap window per round")
	faultBurst := flag.Float64("fault-burst", 0, "fraction of VPs with bursty reply loss per round")
	faultOutage := flag.Float64("fault-outage", 0, "fraction of /24s transiently unreachable per round")

	verify := flag.Bool("verify", false, "after the distributed census, run the zero-fault single-process campaign and fail unless combined rows, greylist, and outcomes are byte-identical")
	top := flag.Int("top", 10, "print the top-N anycast ASes")
	flag.Parse()
	log.SetFlags(0)

	if *agent {
		if *connect == "" {
			log.Fatal("agent mode needs -connect HOST:PORT")
		}
		runRemoteAgent(*connect, *name, *capacity)
		return
	}
	if *local <= 0 && *listen == "" {
		log.Fatal("pick a mode: -listen ADDR (coordinator), -agent -connect ADDR, or -local N")
	}
	if *verify {
		// Only crash faults with zero stickiness keep the distributed
		// run byte-identical to a zero-fault single-process campaign: a
		// non-sticky crashed VP recovers on its first re-lease with
		// identical draws, whereas flap/burst loss windows depend on the
		// probing run length (which sharding changes) and sticky crashes
		// quarantine VPs with partial rows.
		if *faultSticky > 0 || *faultFlap > 0 || *faultBurst > 0 || *faultOutage > 0 {
			log.Fatal("-verify only supports -fault-crash with zero stickiness")
		}
	}

	start := time.Now()
	cfg := netsim.DefaultConfig()
	cfg.Seed = *seed
	cfg.Unicast24s = *unicast
	world := netsim.New(cfg)
	db := cities.Default()
	pl := platform.PlanetLab(db)
	table := bgp.FromWorld(world)

	full := hitlist.FromWorld(world)
	log.Printf("world: %d /24s (%d anycast), hitlist %d entries",
		world.NumPrefixes(), len(world.Deployments()), full.Len())
	black, err := prober.BuildBlacklist(world, pl.VPs()[0], full.Targets(), prober.Config{Seed: *seed})
	if err != nil {
		log.Fatalf("blacklist census: %v", err)
	}
	targets := full.PruneNeverAlive().Without(black.Targets())
	log.Printf("blacklist: %d hosts; pruned target list: %d", black.Len(), targets.Len())

	var faults *netsim.FaultConfig
	probeWorld := world
	if *faultCrash > 0 || *faultFlap > 0 || *faultBurst > 0 || *faultOutage > 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		faults = &netsim.FaultConfig{
			Seed:                 fseed,
			CrashFraction:        *faultCrash,
			CrashStickiness:      *faultSticky,
			FlapFraction:         *faultFlap,
			BurstLossFraction:    *faultBurst,
			TargetOutageFraction: *faultOutage,
		}
		plan, err := netsim.NewFaultPlan(*faults)
		if err != nil {
			log.Fatalf("fault plan: %v", err)
		}
		probeWorld = world.WithFaults(plan)
		log.Printf("fault injection: crash=%.2f (sticky %.2f) flap=%.2f burst=%.2f outage=%.2f seed=%d",
			*faultCrash, *faultSticky, *faultFlap, *faultBurst, *faultOutage, fseed)
	}

	// The optional admin listener exposes the coordinator's view of the
	// census in Prometheus text - prober, campaign/analyzer and cluster
	// control-plane series - and the runtime's profiles.
	var censusMetrics *census.Metrics
	var clusterMetrics *cluster.Metrics
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		prober.DefaultMetrics.Register(reg)
		prober.RegisterGreylistGauge(reg, black, "blacklist")
		censusMetrics = census.NewMetrics(reg)
		clusterMetrics = cluster.NewMetrics(reg)
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listen: %v", err)
		}
		srv := &http.Server{Handler: admin.Mux(reg), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics, profiles under /debug/pprof/", ln.Addr())
	}

	ccfg := census.Config{Seed: *seed, Rate: *rate, MaxAttempts: *retries, RetryBackoff: *retryBackoff}
	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg, Metrics: censusMetrics})
	coord, err := cluster.NewCoordinator(cluster.Config{
		Campaign:       cp,
		Targets:        targets.Targets(),
		Blacklist:      black,
		Census:         ccfg,
		World:          cfg,
		Faults:         faults,
		ShardTargets:   *shardTargets,
		LeaseTTL:       *leaseTTL,
		HeartbeatEvery: *heartbeat,
		Log:            log.Printf,
		Metrics:        clusterMetrics,
	})
	if err != nil {
		log.Fatalf("coordinator: %v", err)
	}

	var fleet *cluster.Harness
	if *local > 0 {
		fleet, err = cluster.NewHarness(coord, cluster.HarnessConfig{
			Agents:    *local,
			Transport: *transport,
			Agent: cluster.AgentConfig{
				Name:        *name,
				Capacity:    *capacity,
				World:       probeWorld,
				ExitOnCrash: *exitOnCrash,
			},
			Respawn:         *respawn,
			KillAfterFrames: *churnEvery,
		})
		if err != nil {
			coord.Close()
			log.Fatalf("harness: %v", err)
		}
		log.Printf("local cluster: %d agents over %s (churn-every=%d respawn=%v)",
			*local, *transport, *churnEvery, *respawn)
	} else {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			coord.Close()
			log.Fatalf("listen: %v", err)
		}
		go coord.Serve(ln)
		log.Printf("coordinator listening on %s, waiting for %d agents", ln.Addr(), *minAgents)
		for coord.Stats().AgentsJoined < *minAgents {
			time.Sleep(100 * time.Millisecond)
		}
	}

	for round := 1; round <= *rounds; round++ {
		vps := pl.Sample(*vpsPer, *seed+uint64(round))
		sum, err := coord.ExecuteRound(context.Background(), uint64(round), vps)
		if err != nil {
			log.Printf("census %d: probing errors (partial rows kept): %v", sum.Round, err)
		}
		log.Printf("census %d: %d VPs, %d probes, %d echo targets, %d greylisted (%v)",
			sum.Round, sum.VPs, sum.Probes, sum.EchoTargets, sum.GreylistLen,
			sum.Duration.Round(time.Millisecond))
		if sum.Health.Retries > 0 || sum.Health.Degraded() {
			log.Printf("census %d health: %s", sum.Round, sum.Health)
		}
	}
	st := coord.Stats()
	log.Printf("cluster: %d joins, %d losses, %d leases (%d re-leases, %d expired), %d frames folded, %d late",
		st.AgentsJoined, st.AgentsLost, st.Leases, st.ReLeases, st.Expired, st.FramesFolded, st.LateFrames)
	if fleet != nil {
		deaths := fleet.Deaths()
		if err := fleet.Close(); err != nil {
			log.Printf("harness close: %v", err)
		}
		if deaths > 0 {
			log.Printf("agent churn: %d deaths, fleet respawned", deaths)
		}
	} else {
		coord.Close()
	}
	if cp.Health().Degraded() {
		log.Printf("campaign degraded: %s", cp.Health())
	}

	if cp.Combined() == nil {
		log.Fatal("no census rounds ran")
	}
	outcomes, _ := cp.Analyze(db, core.Options{}, 2, 0)

	if *verify {
		verifyAgainstSingleProcess(cp, outcomes, world, targets, black, pl, ccfg, *rounds, *vpsPer, *seed, db)
	}

	findings := analysis.Attribute(outcomes, table)
	g := analysis.GlanceOf(findings)
	log.Printf("combined: %d anycast /24s across %d ASes, %d replicas in %d cities / %d countries",
		g.IP24s, g.ASes, g.Replicas, g.Cities, g.CC)
	sts := analysis.PerAS(analysis.FilterMinReplicas(findings, 5), world.Registry)
	fmt.Printf("\n%-24s %9s %7s\n", "AS", "replicas", "IP/24")
	for i, s := range sts {
		if i >= *top {
			break
		}
		fmt.Printf("%-24s %9.1f %7d\n", s.AS.Name, s.MeanReplicas, s.IP24s)
	}
	log.Printf("\ntotal wall time %v", time.Since(start).Round(time.Millisecond))
}

// verifyAgainstSingleProcess re-runs the campaign in one process with zero
// faults, on the span-pipelined executor cmd/census runs, and dies unless
// the distributed result is byte-identical: same combined rows, same
// greylist, same outcomes.
func verifyAgainstSingleProcess(cp *census.Campaign, outcomes []census.Outcome, world *netsim.World,
	targets *hitlist.Hitlist, black *prober.Greylist, pl *platform.Platform,
	ccfg census.Config, rounds, vpsPer int, seed uint64, db *cities.DB) {
	ref := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	for round := 1; round <= rounds; round++ {
		vps := pl.Sample(vpsPer, seed+uint64(round))
		if _, err := ref.ExecuteRoundPipelined(context.Background(), world, vps, targets, black, uint64(round), census.PipelineConfig{}); err != nil {
			log.Fatalf("verify: single-process round %d: %v", round, err)
		}
	}
	cw, cg := ref.Combined(), cp.Combined()
	if !reflect.DeepEqual(cw.VPs, cg.VPs) || !reflect.DeepEqual(cw.Targets, cg.Targets) {
		log.Fatal("verify: VP union or target list diverges from the single-process campaign")
	}
	for v := range cw.RTTus {
		if !reflect.DeepEqual(cw.RTTus[v], cg.RTTus[v]) {
			log.Fatalf("verify: combined row %d (%s) diverges from the single-process campaign", v, cw.VPs[v].Name)
		}
	}
	if !reflect.DeepEqual(ref.Greylist().Snapshot(), cp.Greylist().Snapshot()) {
		log.Fatal("verify: greylist diverges from the single-process campaign")
	}
	batch := census.AnalyzeAll(db, cw, core.Options{}, 2, 0)
	if !reflect.DeepEqual(outcomes, batch) {
		log.Fatalf("verify: outcomes diverge (%d distributed vs %d single-process anycast /24s)",
			len(outcomes), len(batch))
	}
	log.Printf("verify: distributed census == single-process census (%d rows, %d anycast /24s)",
		len(cg.RTTus), len(outcomes))
}

// runRemoteAgent dials the coordinator and executes leases until it
// sends a shutdown frame or the connection dies.
func runRemoteAgent(addr, name string, capacity int) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	log.Printf("agent %q connected to %s", name, addr)
	if err := cluster.RunAgent(context.Background(), conn, cluster.AgentConfig{
		Name:     name,
		Capacity: capacity,
	}); err != nil {
		log.Fatalf("agent: %v", err)
	}
	log.Printf("agent %q: coordinator shut down, exiting", name)
}
