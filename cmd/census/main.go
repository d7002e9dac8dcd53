// Command census runs one or more IPv4 anycast censuses end-to-end against
// the synthetic Internet and prints the Fig. 4 funnel: hitlist size, pruned
// target list, responsive targets, greylist, and detected anycast /24s.
//
// It probes on in-process workers, or as a coordinator leasing (VP, span)
// units to agents that own the vantage points (the paper's PlanetLab
// topology, Sec. 3): -local N runs N agents in-process over net.Pipe, the
// deterministic testbed for churn and crash faults, and -listen ADDR serves
// `census -agent -connect ADDR` processes. -verify holds a fleet's result
// to byte-identity with a zero-fault in-process campaign.
//
// With -snapshot FILE it writes the analysis as the snapshot file anycastd
// serves (`anycastd -snapshot-file FILE`), replacing FILE atomically; a
// FILE that already opens makes this census continue its round numbers.
// With -save DIR it writes the combined measurements as one Table 1 binary
// record file per vantage point, the files `igreedy -runs DIR` re-analyzes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
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
	"anycastmap/internal/record"
	"anycastmap/internal/store"
)

// rateWithin is the largest pilot/campaign probes-per-second ratio
// -rate-baseline-targets tolerates.
const rateWithin = 2.0

func main() {
	// Executor: in-process unless one of -local, -listen or -agent.
	local := flag.Int("local", 0, "run a coordinator plus N in-process agents over net.Pipe")
	listen := flag.String("listen", "", "run a coordinator serving agents on this TCP address")
	minAgents := flag.Int("min-agents", 1, "-listen: agents required before the census starts")
	agent := flag.Bool("agent", false, "execute leases for the coordinator at -connect")
	connect := flag.String("connect", "", "-agent: coordinator address")
	name := flag.String("name", "agent", "agent name")
	workers := flag.Int("workers", 0, "units one process (or one agent) probes at once (0 = GOMAXPROCS)")

	// Census shape.
	unicast := flag.Int("unicast24s", 20000, "unicast /24 background size")
	rounds := flag.Int("censuses", 4, "number of census rounds")
	vpsPer := flag.Int("vps", 261, "vantage points per census")
	seed := flag.Uint64("seed", 2015, "world seed")
	rate := flag.Float64("rate", 1000, "probing rate per VP (probes/s; 0 = 1000)")
	retries := flag.Int("retries", 3, "per-VP probing attempts per census round (1 disables retrying)")
	retryBackoff := flag.Duration("retry-backoff", 50*time.Millisecond, "base backoff before retrying a failed VP (doubles per retry)")
	spanTargets := flag.Int("span-targets", 0, "probe/fold unit width in targets, and the most cells (targets x VPs) a lease holds (0 = 16384)")

	// Fleet: -local and -listen.
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "how long an agent may hold a lease")
	churnEvery := flag.Int("churn-every", 0, "-local: kill each agent's connection after this many row frames")
	exitOnCrash := flag.Bool("exit-on-crash", false, "-local: an injected VP crash kills the whole agent")
	verify := flag.Bool("verify", false, "after the fleet's census, run the zero-fault in-process campaign and fail unless combined rows, greylist, and outcomes are byte-identical")
	metricsAddr := flag.String("metrics", "", "serve GET /metrics and /debug/pprof/ on this admin address")

	// Failure weather: census rounds only, never the blacklist or pilot.
	faultSeed := flag.Uint64("fault-seed", 0, "fault plan seed (0 = world seed)")
	faultCrash := flag.Float64("fault-crash", 0, "fraction of VPs crashing mid-run per round")
	faultSticky := flag.Float64("fault-crash-sticky", 0, "probability a crashed VP stays down across retries")
	faultFlap := flag.Float64("fault-flap", 0, "fraction of VPs with a total-loss flap window per round")
	faultBurst := flag.Float64("fault-burst", 0, "fraction of VPs with bursty reply loss per round")
	faultOutage := flag.Float64("fault-outage", 0, "fraction of /24s transiently unreachable per round")

	// Outputs and gates.
	save := flag.String("save", "", "write one binary record file per combined vantage point into this new or empty directory (read by igreedy -runs)")
	snapshot := flag.String("snapshot", "", "write the census's anycast map to this snapshot file, the one anycastd -snapshot-file serves (an existing file's round + 1 numbers the first round)")
	top := flag.Int("top", 15, "print the top-N anycast ASes")
	maxHeapMiB := flag.Int("max-heap-mib", 0, "sample HeapAlloc through the run and fail if the peak exceeds this many MiB (0 = no assertion)")
	rateBaselineTargets := flag.Int("rate-baseline-targets", 0, "measure a single-VP pilot probing run over the first N pruned targets and fail unless the campaign's aggregate probe rate stays within 2x of it (0 = no assertion)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file right after the analysis, while the campaign is live")
	flag.Parse()

	log.SetFlags(0)
	start := time.Now()

	// An agent executes leases until its coordinator shuts down or goes away.
	if *agent {
		workerCfg := census.Config{Workers: *workers}
		if err := workerCfg.Validate(); err != nil {
			log.Fatalf("workers: %v", err)
		}
		conn, err := net.Dial("tcp", *connect)
		if err != nil {
			log.Fatalf("agent mode needs -connect HOST:PORT of a coordinator: %v", err)
		}
		log.Printf("agent %q connected to %s", *name, *connect)
		acfg := cluster.AgentConfig{Name: *name, Capacity: workerCfg.EffectiveWorkers()}
		if err := cluster.RunAgent(context.Background(), conn, acfg); err != nil {
			log.Fatalf("agent: %v", err)
		}
		log.Printf("agent %q: coordinator shut down, exiting", *name)
		return
	}
	fleetMode := *local > 0 || *listen != ""
	if *verify {
		if !fleetMode {
			log.Fatal("-verify compares a fleet (-local or -listen) with the in-process executor")
		}
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

	// The world, the platform sample, the rounds, the retry budget, the
	// rate and any fault fraction set are validated before anything is
	// read, written or built: a bad one is refused, no -save directory
	// left, not ignored, run without end or left to panic in netsim.New.
	cfg := netsim.DefaultConfig()
	cfg.Seed = *seed
	cfg.Unicast24s = *unicast
	if err := cfg.Validate(); err != nil {
		log.Fatalf("unicast24s: %v", err)
	}
	if *vpsPer < 1 {
		log.Fatalf("vps: %d vantage points per census, want at least 1", *vpsPer)
	}
	if *rounds < 1 {
		log.Fatalf("censuses: %d census rounds, want at least 1", *rounds)
	}
	if *retries < 1 {
		log.Fatalf("retries: %d probing attempts per VP and round, want at least 1", *retries)
	}
	// A negative count means nothing: not "none", not its default.
	for _, f := range []struct {
		name string
		v    int
	}{{"local", *local}, {"top", *top}, {"max-heap-mib", *maxHeapMiB}, {"rate-baseline-targets", *rateBaselineTargets}} {
		if f.v < 0 {
			log.Fatalf("%s: %d is negative, want 0 or more", f.name, f.v)
		}
	}
	// The census, pipeline and cluster configs refuse a NaN or negative
	// -rate, a negative -workers, -span-targets or -retry-backoff and a
	// -lease-ttl of zero or less: each means nothing, not its default.
	// They are asked one flag at a time, so the refusal names it.
	for _, f := range []struct {
		name string
		err  error
	}{
		{"rate", census.Config{Rate: *rate}.Validate()},
		{"workers", census.Config{Workers: *workers}.Validate()},
		{"retry-backoff", census.Config{RetryBackoff: *retryBackoff}.Validate()},
		{"span-targets", census.PipelineConfig{SpanTargets: *spanTargets}.Validate()},
		{"lease-ttl", cluster.Config{LeaseTTL: *leaseTTL}.Validate()},
	} {
		if f.err != nil {
			log.Fatalf("%s: %v", f.name, f.err)
		}
	}
	ccfg := census.Config{Seed: *seed, Rate: *rate, Workers: *workers,
		MaxAttempts: *retries, RetryBackoff: *retryBackoff}
	pc := census.PipelineConfig{SpanTargets: *spanTargets}
	faults := faultConfig(*faultSeed, *seed, *faultCrash, *faultSticky, *faultFlap, *faultBurst, *faultOutage)
	var plan *netsim.FaultPlan
	if faults != nil {
		var err error
		if plan, err = netsim.NewFaultPlan(*faults); err != nil {
			log.Fatalf("fault plan: %v", err)
		}
	}

	// Rounds stay monotone across censuses writing one snapshot file: the
	// first round follows the round of the file this census replaces.
	first, err := firstRound(*snapshot)
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	if err := prepareSaveDir(*save); err != nil {
		log.Fatalf("save: %v", err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// The watermark sampler pins the campaign's true peak heap (HeapAlloc
	// between GCs), which the post-campaign ReadMemStats log line misses.
	var peakHeap atomic.Uint64
	if *maxHeapMiB > 0 {
		stopSampling := make(chan struct{})
		defer close(stopSampling)
		go func() {
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			var ms runtime.MemStats
			for {
				select {
				case <-stopSampling:
					return
				case <-t.C:
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peakHeap.Load() {
						peakHeap.Store(ms.HeapAlloc)
					}
				}
			}
		}()
	}

	setupStart := time.Now()
	world := netsim.New(cfg)
	db := cities.Default()
	pl := platform.PlanetLab(db)
	table := bgp.FromWorld(world)

	full := hitlist.FromWorld(world)
	log.Printf("world: %d /24s (%d anycast), hitlist %d entries",
		world.NumPrefixes(), len(world.Deployments()), full.Len())

	// Preliminary single-VP census builds the blacklist (Sec. 3.3).
	black, err := prober.BuildBlacklist(world, pl.VPs()[0], full.Targets(), prober.Config{Seed: *seed})
	if err != nil {
		log.Fatalf("blacklist census: %v", err)
	}
	targets := full.PruneNeverAlive().Without(black.Targets())
	log.Printf("blacklist: %d hosts; pruned target list: %d", black.Len(), targets.Len())
	// Set-up is world build to pruned target list; its heap is what stays
	// live once the collector has run.
	setupWall := time.Since(setupStart)
	runtime.GC()
	var setupMem runtime.MemStats
	runtime.ReadMemStats(&setupMem)
	log.Printf("setup: %v from world build to pruned target list, %.1f MiB heap after GC",
		setupWall.Round(time.Millisecond), float64(setupMem.HeapAlloc)/(1<<20))

	// The census rounds probe probeWorld; everything else keeps the
	// fault-free world.
	probeWorld := world
	if plan != nil {
		probeWorld = world.WithFaults(plan)
		log.Printf("fault injection: crash=%.2f (sticky %.2f) flap=%.2f burst=%.2f outage=%.2f seed=%d",
			*faultCrash, *faultSticky, *faultFlap, *faultBurst, *faultOutage, faults.Seed)
	}

	// The optional admin listener exposes the census in Prometheus text -
	// prober, campaign/analyzer and cluster control-plane series - and the
	// runtime's profiles.
	var reg *obs.Registry
	var censusMetrics *census.Metrics
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		prober.DefaultMetrics.Register(reg)
		prober.RegisterGreylistGauge(reg, black, "blacklist")
		censusMetrics = census.NewMetrics(reg)
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

	// The pilot run pins the small-campaign probe rate in this very
	// process: a single-VP probing loop over a prefix of the pruned list,
	// one warm-up pass (session build, greylist freeze) and one measured
	// pass. The campaign's aggregate rate is checked against it at the
	// end — the regression gate for the per-probe collapse that large
	// target lists used to pay once they outgrew the unicast RTT memo.
	var pilotRate float64
	if *rateBaselineTargets > 0 {
		pt := targets.Targets()[:min(targets.Len(), *rateBaselineTargets)]
		var st prober.Stats
		var t0 time.Time
		for range 2 { // the warm-up pass, then the measured one
			t0 = time.Now()
			if st, _, err = prober.Run(world, pl.VPs()[0], pt, black, prober.Config{Seed: *seed, Round: 1, Rate: *rate},
				func(record.Sample) {}); err != nil {
				log.Fatalf("pilot probing run: %v", err)
			}
		}
		pilotRate = float64(st.Sent) / time.Since(t0).Seconds()
		log.Printf("pilot probing rate: %.2fM probes/s over %d targets", pilotRate/1e6, len(pt))
	}

	// Every executor probes in (VP, target-span) units driven by the
	// campaign's round scheduler and folds spans as they land, so no whole
	// round is ever held.
	ctx := context.Background()
	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg, Metrics: censusMetrics})
	var coord *cluster.Coordinator
	var fleet *cluster.Harness
	if fleetMode {
		coord, err = cluster.NewCoordinator(cluster.Config{
			Campaign:     cp,
			Targets:      targets.Targets(),
			Blacklist:    black,
			Census:       ccfg,
			World:        cfg,
			Faults:       faults,
			ShardTargets: *spanTargets,
			LeaseTTL:     *leaseTTL,
			Log:          log.Printf,
		})
		if err != nil {
			log.Fatalf("coordinator: %v", err)
		}
		if reg != nil {
			coord.RegisterMetrics(reg)
		}
		if *local > 0 {
			fleet, err = cluster.NewHarness(coord, cluster.HarnessConfig{
				Agents: *local,
				Agent: cluster.AgentConfig{
					Name:        *name,
					Capacity:    ccfg.EffectiveWorkers(),
					World:       probeWorld,
					ExitOnCrash: *exitOnCrash,
				},
				Respawn:         true,
				KillAfterFrames: *churnEvery,
			})
			if err != nil {
				log.Fatalf("harness: %v", err)
			}
			defer fleet.Close()
			log.Printf("local cluster: %d agents over net.Pipe (churn-every=%d)", *local, *churnEvery)
		} else {
			ln, err := net.Listen("tcp", *listen)
			if err != nil {
				log.Fatalf("listen: %v", err)
			}
			defer coord.Close() // agents get a shutdown frame and exit
			go coord.Serve(ln)
			log.Printf("coordinator listening on %s, waiting for %d agents", ln.Addr(), *minAgents)
			for coord.Stats().AgentsJoined < *minAgents {
				time.Sleep(100 * time.Millisecond)
			}
		}
	} else {
		log.Printf("probing with %d concurrent vantage points", ccfg.EffectiveWorkers())
	}

	last := first + uint64(*rounds) - 1

	var campaignProbes int64
	var campaignWall time.Duration
	for round := first; round <= last; round++ {
		vps := pl.Sample(*vpsPer, *seed+round)
		var sum census.RoundSummary
		if coord != nil {
			sum, err = coord.ExecuteRound(ctx, round, vps)
		} else {
			sum, err = cp.ExecuteRoundPipelined(ctx, probeWorld, vps, targets, black, round, pc)
		}
		if err != nil {
			log.Printf("census %d: probing errors (partial rows kept): %v", sum.Round, err)
		}
		log.Printf("census %d: %d VPs, %d probes, %d echo targets, %d greylisted (%v)",
			sum.Round, sum.VPs, sum.Probes, sum.EchoTargets, sum.GreylistLen,
			sum.Duration.Round(time.Millisecond))
		campaignProbes += int64(sum.Probes)
		campaignWall += sum.Duration
		if sum.Health.Retries > 0 || sum.Health.Degraded() {
			log.Printf("census %d health: %s", sum.Round, sum.Health)
		}
	}
	if coord != nil {
		st := coord.Stats()
		log.Printf("cluster: %d joins, %d losses, %d leases of %d units (%d re-leases, %d expired), %d frames folded, %d late",
			st.AgentsJoined, st.AgentsLost, st.Leases, st.Units, st.ReLeases, st.Expired, st.FramesFolded, st.LateFrames)
		if fleet != nil && fleet.Deaths() > 0 {
			log.Printf("agent churn: %d deaths, fleet respawned", fleet.Deaths())
		}
	}
	if cp.Health().Degraded() {
		log.Printf("campaign degraded: %s", cp.Health())
	}

	combined := cp.Combined()
	if combined == nil {
		log.Fatal("no census rounds ran")
	}
	if *save != "" {
		cells, err := saveRecords(*save, combined)
		if err != nil {
			log.Fatalf("save: %v", err)
		}
		log.Printf("saved the %d-round combination to %s: %d VP files, %d samples (%d bytes)",
			combined.Rounds, *save, len(combined.VPs), cells, record.BinarySize(cells))
	}
	t0 := time.Now()
	outcomes, st := cp.Analyze(db, core.Options{}, 2, *workers)
	analysisWall := time.Since(t0)
	log.Printf("analysis: %d target analyses (%d witness-decided, %d split-scanned, %d pair tests)",
		st.Analyzed, st.WitnessDecided, st.SplitScanned, st.PairTests)
	if *memProfile != "" {
		writeHeapProfile(*memProfile)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	log.Printf("heap after campaign: %.1f MiB in use, %.1f MiB from OS, %d GC cycles; analysis wall %v",
		float64(ms.HeapAlloc)/(1<<20), float64(ms.Sys)/(1<<20), ms.NumGC,
		analysisWall.Round(time.Millisecond))
	if *verify { // every round again, in-process and fault-free
		ref := census.NewCampaign(census.CampaignConfig{Census: ccfg})
		for round := first; round <= last; round++ {
			if _, err := ref.ExecuteRoundPipelined(ctx, world, pl.Sample(*vpsPer, *seed+round), targets, black, round, pc); err != nil {
				log.Fatalf("verify: in-process round %d: %v", round, err)
			}
		}
		verifyAgainst(ref, cp, outcomes, db)
	}
	findings := analysis.Attribute(outcomes, table)
	g := analysis.GlanceOf(findings)
	log.Printf("combined: %d anycast /24s across %d ASes, %d replicas in %d cities / %d countries",
		g.IP24s, g.ASes, g.Replicas, g.Cities, g.CC)
	if *snapshot != "" {
		snap := store.NewSnapshot(findings, world.Registry, last, *rounds)
		snap.SetHealth(cp.Health())
		if err := store.SaveSnapshotFile(*snapshot, snap); err != nil {
			log.Fatalf("snapshot: %v", err)
		}
		log.Printf("snapshot: %d anycast /24s of census rounds %d-%d written to %s", snap.Len(), first, last, *snapshot)
	}

	sts := analysis.PerAS(analysis.FilterMinReplicas(findings, 5), world.Registry)
	fmt.Printf("\n%-24s %9s %7s\n", "AS", "replicas", "IP/24")
	for i, st := range sts {
		if i >= *top {
			break
		}
		fmt.Printf("%-24s %9.1f %7d\n", st.AS.Name, st.MeanReplicas, st.IP24s)
	}
	if *rateBaselineTargets > 0 && campaignWall > 0 {
		campaignRate := float64(campaignProbes) / campaignWall.Seconds()
		ratio := pilotRate / campaignRate
		retried := cp.Health().Retries
		log.Printf("campaign probing rate: %.2fM probes/s aggregate, %.2fx slower than the pilot (limit %.2fx, %d retries)",
			campaignRate/1e6, ratio, rateWithin, retried)
		// A retry waits out its backoff inside the round's wall, so only a
		// campaign that never retried measures its probing alone.
		if ratio > rateWithin && retried == 0 {
			log.Fatalf("probe-rate collapse: campaign rate %.0f probes/s is %.2fx below the %d-target pilot (%.0f probes/s), limit %.2fx",
				campaignRate, ratio, *rateBaselineTargets, pilotRate, rateWithin)
		}
	}
	if *maxHeapMiB > 0 {
		peak := peakHeap.Load()
		limit := uint64(*maxHeapMiB) << 20
		log.Printf("peak heap: %.1f MiB sampled (limit %d MiB, bounded=%v)",
			float64(peak)/(1<<20), *maxHeapMiB, peak <= limit)
		if peak > limit {
			log.Fatalf("peak heap %.1f MiB exceeds -max-heap-mib %d", float64(peak)/(1<<20), *maxHeapMiB)
		}
	}
	log.Printf("\ntotal wall time %v", time.Since(start).Round(time.Millisecond))
}

// faultConfig is the failure weather the fault flags ask for: nil when
// every fraction is zero, otherwise a config for NewFaultPlan to validate,
// so a negative or NaN fraction is refused rather than read as "no
// faults". A zero fault seed means the world seed.
func faultConfig(faultSeed, worldSeed uint64, crash, sticky, flap, burst, outage float64) *netsim.FaultConfig {
	if crash == 0 && sticky == 0 && flap == 0 && burst == 0 && outage == 0 {
		return nil
	}
	if faultSeed == 0 {
		faultSeed = worldSeed
	}
	return &netsim.FaultConfig{Seed: faultSeed, CrashFraction: crash, CrashStickiness: sticky,
		FlapFraction: flap, BurstLossFraction: burst, TargetOutageFraction: outage}
}

// firstRound numbers the first round of a census writing the snapshot
// file at path: 1 when there is no file yet (or no path), else the file's
// round + 1. Any other failure to open the file is an error, so a census
// never replaces a file that is not a readable snapshot.
func firstRound(path string) (uint64, error) {
	if path == "" {
		return 1, nil
	}
	prev, err := store.OpenSnapshotFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		log.Printf("snapshot: %s does not exist, starting at round 1", path)
		return 1, nil
	}
	if err != nil {
		return 0, fmt.Errorf("%w (not replacing it; move it away to start at round 1)", err)
	}
	return prev.Round() + 1, nil
}

// writeHeapProfile writes the heap profile as of a fresh GC. Called right
// after the analysis, the combined matrix and the outcomes are still live,
// so the profile shows the campaign's peak owners rather than an empty
// heap at exit.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Printf("memprofile: %v", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Printf("memprofile: %v", err)
	}
}

// verifyAgainst dies unless the fleet's campaign cp is byte-identical to
// ref, its zero-fault in-process twin: same combined rows, same greylist,
// same outcomes.
func verifyAgainst(ref, cp *census.Campaign, outcomes []census.Outcome, db *cities.DB) {
	refOutcomes, _ := ref.Analyze(db, core.Options{}, 2, 0)
	switch {
	case !reflect.DeepEqual(ref.Combined(), cp.Combined()):
		log.Fatal("verify: the combined matrix (VPs, targets, rows) diverges from the in-process campaign")
	case !reflect.DeepEqual(ref.Greylist().Snapshot(), cp.Greylist().Snapshot()):
		log.Fatal("verify: greylist diverges from the in-process campaign")
	case !reflect.DeepEqual(outcomes, refOutcomes):
		log.Fatalf("verify: outcomes diverge (%d fleet vs %d in-process anycast /24s)", len(outcomes), len(refOutcomes))
	}
	log.Printf("verify: fleet census == in-process census (%d rows, %d anycast /24s)",
		len(cp.Combined().RTTus), len(outcomes))
}

// prepareSaveDir makes dir ready for saveRecords before any probing:
// it creates dir when missing and refuses one that holds anything, since
// igreedy -runs reads every file there and a leftover VP file would mix
// into the analysis. An empty path is a no-op.
func prepareSaveDir(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err == nil && len(entries) > 0 {
		err = fmt.Errorf("%s is not empty (%d entries, e.g. %s); save into a new or empty directory", dir, len(entries), entries[0].Name())
	}
	return err
}

// saveRecords writes the combined matrix into dir as one Table 1 binary
// record file per vantage point, one echo sample per answered target: the
// delay is the cell's minimum RTT and the timestamp 0, since a combined
// cell has no single probe time. The zero-padded slot prefix of each file
// name keeps the combined VP order, which the analysis depends on, in
// directory order. It returns how many samples it wrote.
func saveRecords(dir string, c *census.Combined) (int, error) {
	width := len(strconv.Itoa(len(c.VPs) - 1))
	cells := 0
	for v, vp := range c.VPs {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%0*d-%s.rec", width, v, vp.Name)))
		if err != nil {
			return cells, err
		}
		w := record.NewBinaryWriter(f)
		for t, us := range c.RTTus[v] {
			if us >= 0 { // an echo always encodes; a failed write resurfaces in Flush
				w.Write(record.Sample{Target: c.Targets[t], Kind: netsim.ReplyEcho, RTT: time.Duration(us) * time.Microsecond})
				cells++
			}
		}
		if err := errors.Join(w.Flush(), f.Close()); err != nil {
			return cells, err
		}
	}
	return cells, nil
}
