package main

import (
	"fmt"
	"time"
)

// workload is one row of the benchmark: a census configuration, a
// traffic mix, and how the measured window divides between them.
//
// Every workload runs both of the system's paths — census reps, then the
// DNS saturation and HTTP phases against the seed census's snapshot —
// because the benchmark contract reports every end-to-end metric on every
// workload. What differs is where the time goes: the census-* rows give
// the census most of the window; the serve-* rows give it a sliver.
//
// A workload holds two censuses of the same world from the same vantage
// points. The seed census covers every pruned target; it runs once, warms
// the process, is checked at scale, gives census_live_heap_mib and the
// snapshot the traffic is served from. The sampled census covers
// SampleAnycast + SampleUnicast of those targets and is the one the timed
// reps repeat: a rep has to fit inside the tens of milliseconds this host
// leaves a process undisturbed (README, "Noise"), or no statistic of its
// time repeats.
type workload struct {
	Name string

	// Census shape.
	Platform    string // "planetlab" or "ripe"
	Unicast24s  int    // netsim.Config.Unicast24s; the anycast catalogue is fixed
	Rounds      int
	VPsPerRound int
	// SampleAnycast and SampleUnicast size the sampled census: that many
	// anycast /24s, spread evenly over the deployments ordered by replica
	// count so that every seed draws the same mix of small and large
	// ones, and that many unicast /24s, spread evenly over the pruned
	// list.
	SampleAnycast int
	SampleUnicast int
	// Fleet executes the rounds through cluster.Coordinator and two
	// in-process agents over net.Pipe, under a recoverable crash plan,
	// instead of Campaign.ExecuteRoundPipelined.
	Fleet bool

	// CensusShare is the fraction of the measured window spent on census
	// reps; the three serving phases split the rest equally.
	CensusShare float64

	// Traffic shape. Questions is the number of distinct DNS
	// (client /24, service /24) questions, drawn over Clients client
	// prefixes and at most Services services (0 = every detected one).
	// LookupIPs is the number of distinct HTTP lookup addresses. Zipf
	// draws both with a Zipf(1.1) skew; otherwise draws are uniform.
	Questions int
	Clients   int
	Services  int
	LookupIPs int
	Zipf      bool
	// PublishEvery, when non-zero, runs a publisher beside the serving
	// phases that rebuilds, persists, reopens and publishes the snapshot
	// at this interval.
	PublishEvery time.Duration
}

// scale sizes everything that is not part of a workload's identity.
type scale struct {
	Name string
	// Shrink divides Unicast24s and VPsPerRound (smoke runs).
	Shrink int
	// SetupReps is how many times set-up runs before the first cycle;
	// every later cycle starts with one more.
	SetupReps int
	// MinReps is the least number of census reps whatever the budget.
	MinReps int
	// Cycle is the length of one turn of census reps, DNS saturation and
	// pipelined HTTP, the set-up at its head not counted; a run makes as
	// many as fit its window.
	Cycle time.Duration
	// Window is the width of one serving measurement window.
	Window time.Duration
	// Micro is the time budget of one per-layer microloop.
	Micro time.Duration
	// RoundTrips, OpenLoop and Ceiling are the lengths of the traced
	// run's extra phases: one-outstanding round trips (DNS, then HTTP),
	// the open loop, and the load-generator calibration.
	RoundTrips time.Duration
	OpenLoop   time.Duration
	Ceiling    time.Duration
}

var scales = map[string]scale{
	"full": {Name: "full", Shrink: 1, SetupReps: 2, MinReps: 2, Cycle: 1750 * time.Millisecond, Window: 5 * time.Millisecond,
		Micro: 60 * time.Millisecond, RoundTrips: 1500 * time.Millisecond, OpenLoop: 1500 * time.Millisecond, Ceiling: 500 * time.Millisecond},
	// smoke exists for bench_test.go: every code path, no statistical
	// weight.
	"smoke": {Name: "smoke", Shrink: 20, SetupReps: 1, MinReps: 2, Cycle: 200 * time.Millisecond, Window: 5 * time.Millisecond,
		Micro: 2 * time.Millisecond, RoundTrips: 60 * time.Millisecond, OpenLoop: 60 * time.Millisecond, Ceiling: 40 * time.Millisecond},
}

// Fault plan and retry policy of the fleet workload: every crashed VP
// recovers on its first retry, so the folded result is byte-identical to
// a fault-free census and the only cost is the re-lease.
const (
	fleetAgents        = 2
	fleetCrashFraction = 0.10
	fleetMaxAttempts   = 5
	fleetRetryBackoff  = time.Millisecond
	// fleetShardTargets matches census.PipelineConfig's default span
	// width, so a lease and a pipelined unit are the same amount of work.
	fleetShardTargets = 1 << 14
)

// openLoopRate is the offered rate of the traced run's open-loop phase.
const openLoopRate = 20000

// Load shape of the gated serving phases: at most nproc (2) client
// connections, each with enough queries outstanding that neither the
// generator nor the server ever sleeps waiting for the other. With one
// outstanding, throughput on a two-core box is set by which goroutines
// happen to share a core (HTTP read 49k-84k requests/s on identical
// inputs); with a window it reads the server's capacity.
const (
	satConns, satWindow   = 1, 32
	httpConns, httpWindow = 2, 8

	txtEvery         = 10 // one query in ten asks TXT, the rest A
	answerCheckEvery = 64 // one A answer in 64 is replayed through Engine.DecideFor
	clientBase       = 0x0b0000
	zipfSkew         = 1.1
	maxQueryBytes    = 96 // upper bound on one prebuilt query packet
)

// workloads is the benchmark's table. The builder contract's time cap
// (4 + 22 runs per workload inside 3420 s) leaves four workloads 30 s a
// run. ISSUE 14's serve-steady is not a row of its own: its traffic — a
// Zipf mix whose working set fits the decision cache and the LRU — is
// what the three census rows serve, so the cache-hit path is measured
// three times over and the row would have added a fourth. The anycast
// catalogue does not scale with Unicast24s (about 1.5k detected /24s at
// every size), so the seed censuses differ in their unicast share.
var workloads = []workload{
	{
		// Seed: ~16.9k pruned targets, 8.8M probes, ~55% probing. A
		// sampled rep: two rounds of ~8 ms and ~9 ms of analysis.
		Name: "census-wide", Platform: "planetlab", Unicast24s: 25000, Rounds: 2, VPsPerRound: 261,
		SampleAnycast: 8, SampleUnicast: 80,
		CensusShare: 0.60,
		Questions:   2048, Clients: 2048, Services: 16, LookupIPs: 16384, Zipf: true,
	},
	{
		// 400 vantage points, not the prototype's 1000: AnalyzeAll
		// starts by measuring every pair of them, and at 700 that alone
		// is 25 ms, longer than a stage may be here. At 400 a sampled
		// rep is ~8 ms of probing and ~13 ms of analysis.
		Name: "census-dense", Platform: "ripe", Unicast24s: 6000, Rounds: 1, VPsPerRound: 400,
		SampleAnycast: 6, SampleUnicast: 60,
		CensusShare: 0.60,
		Questions:   2048, Clients: 2048, Services: 16, LookupIPs: 16384, Zipf: true,
	},
	{
		// census-wide's inputs to the letter. A round is ~23 ms however
		// few the targets: 571 leases of ~40 us each.
		Name: "census-fleet", Platform: "planetlab", Unicast24s: 25000, Rounds: 2, VPsPerRound: 261,
		Fleet:         true,
		SampleAnycast: 8, SampleUnicast: 80,
		CensusShare: 0.60,
		Questions:   2048, Clients: 2048, Services: 16, LookupIPs: 16384, Zipf: true,
	},
	{
		// The working set dwarfs both caches (2,048 questions fit the
		// 4,096-slot decision cache, 262,144 do not; 16k addresses fit
		// the 65,536-entry LRU, a million do not) and every publish
		// invalidates what little they hold.
		Name: "serve-churn", Platform: "planetlab", Unicast24s: 5000, Rounds: 1, VPsPerRound: 261,
		SampleAnycast: 12, SampleUnicast: 120,
		CensusShare: 0.30,
		Questions:   1 << 18, Clients: 65536, Services: 0, LookupIPs: 1 << 20,
		PublishEvery: 100 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// at returns the workload sized for a scale.
func (w workload) at(sc scale) workload {
	if sc.Shrink > 1 {
		w.Unicast24s = max(w.Unicast24s/sc.Shrink, 400)
		w.VPsPerRound = max(w.VPsPerRound/sc.Shrink, 8)
		w.Questions = max(w.Questions/sc.Shrink, 64)
		w.Clients = max(w.Clients/sc.Shrink, 64)
		w.LookupIPs = max(w.LookupIPs/sc.Shrink, 256)
	}
	return w
}
