package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"anycastmap/internal/analysis"
	"anycastmap/internal/bgp"
	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/cluster"
	"anycastmap/internal/core"
	"anycastmap/internal/experiments"
	"anycastmap/internal/geo"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
	"anycastmap/internal/record"
	"anycastmap/internal/route"
	"anycastmap/internal/store"
)

// benchMetrics is one measured point of the benchmark trajectory. All
// numbers come from live runs of the same code paths the benchmarks in
// bench_test.go exercise, so baseline and current entries are comparable
// across commits on the same machine.
type benchMetrics struct {
	// FullCampaignNs is the wall-clock of one complete campaign (world
	// build + blacklist + 4 censuses + combine + analysis) at the
	// BenchmarkFullCampaign scale (4,000 unicast /24s, seed 3000).
	FullCampaignNs float64 `json:"full_campaign_ns_op"`
	// CampaignWallclockS is the wall-clock of the lab build at the scale
	// selected on the command line (default 20,000 unicast /24s).
	CampaignWallclockS float64 `json:"campaign_wallclock_s,omitempty"`
	// ProbesPerS is the single-VP probing-loop throughput over the pruned
	// hitlist (the census hot loop: LFSR walk, greylist check, probe).
	ProbesPerS float64 `json:"probes_per_s"`
	// LookupsPerS is the anycastd serving-path throughput: snapshot index
	// lookups over an alternating anycast/unicast address mix.
	LookupsPerS float64 `json:"lookups_per_s,omitempty"`
	// AllocsPerProbe is heap allocations per probe in a steady-state
	// probing run (the acceptance bound is zero: the constant per-run
	// setup amortizes to ~0 over thousands of probes).
	AllocsPerProbe float64 `json:"allocs_per_probe"`
	// PeakHeapBytes is the high-water live heap (HeapAlloc, sampled every
	// few ms) across the lab build whose wall-clock CampaignWallclockS
	// reports.
	PeakHeapBytes uint64 `json:"peak_heap_bytes,omitempty"`
	// GCCycles is the number of garbage collections that build triggered.
	GCCycles uint32 `json:"gc_cycles,omitempty"`
	// CPUs records how many CPUs the machine that measured this point had.
	// Zero means unknown (baselines predating the field). The campaign
	// fans out across cores, so wall-clock points are only comparable
	// between entries whose CPUs match.
	CPUs int    `json:"cpus,omitempty"`
	Note string `json:"note,omitempty"`
}

// streamBench is the streaming-scale headline: one campaign far beyond the
// batch path's reach, completing with a peak heap bounded below the memory
// that holding every round's dense matrix simultaneously would need.
type streamBench struct {
	Unicast24s  int   `json:"unicast24s"`
	Censuses    int   `json:"censuses"`
	VPsPerRound []int `json:"vps_per_round"`
	Targets     int   `json:"targets"`
	// WallclockS covers the whole Fig. 1 workflow: world build, blacklist
	// census, streaming rounds, fold, analysis, attribution.
	WallclockS    float64 `json:"wallclock_s"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	GCCycles      uint32  `json:"gc_cycles"`
	// DenseAllRoundsBytes is what the pre-streaming data path would hold
	// alive at its peak just for the round matrices: sum over rounds of
	// VPs x targets x 4 bytes. PeakHeapBounded asserts the whole streaming
	// campaign (world and analysis included) stayed below even that.
	DenseAllRoundsBytes uint64 `json:"dense_all_rounds_bytes"`
	// MemoryLimitBytes is the runtime memory limit (GOMEMLIMIT) the rounds
	// ran under: 90% of DenseAllRoundsBytes.
	MemoryLimitBytes uint64 `json:"gomemlimit_bytes"`
	PeakHeapBounded  bool   `json:"peak_heap_bounded"`
	Anycast24s       int    `json:"anycast_24s"`
}

// paperScaleBench is the paper-scale headline: one pipelined campaign over
// a million-plus /24 target list — the regime of the paper's 6.6M-target
// censuses — censused and analyzed on one box under GOMEMLIMIT, its
// product persisted to a snapshot file and re-served via mmap. Peak heap
// must stay under the dense all-rounds footprint and, per target, well
// below the smaller stream_campaign point: the flat-slab combined matrix
// plus in-flight probe spans is all the campaign ever holds.
type paperScaleBench struct {
	Unicast24s  int   `json:"unicast24s"`
	Censuses    int   `json:"censuses"`
	VPsPerRound []int `json:"vps_per_round"`
	Targets     int   `json:"targets"`
	// SpanTargets is the pipelined probe/fold unit width.
	SpanTargets int     `json:"span_targets"`
	WallclockS  float64 `json:"wallclock_s"`
	// ProbingWallS covers just the pipelined rounds; Probes and ProbesPerS
	// are the campaign totals over that window.
	ProbingWallS        float64 `json:"probing_wall_s"`
	Probes              uint64  `json:"probes"`
	ProbesPerS          float64 `json:"probes_per_s"`
	PeakHeapBytes       uint64  `json:"peak_heap_bytes"`
	PeakHeapPerTarget   float64 `json:"peak_heap_bytes_per_target"`
	GCCycles            uint32  `json:"gc_cycles"`
	DenseAllRoundsBytes uint64  `json:"dense_all_rounds_bytes"`
	MemoryLimitBytes    uint64  `json:"gomemlimit_bytes"`
	PeakHeapBounded     bool    `json:"peak_heap_bounded"`
	Anycast24s          int     `json:"anycast_24s"`
	// SnapshotFileBytes is the size of the persisted snapshot file;
	// MappedLookupsPerS is the serving throughput over its mmap reopen.
	SnapshotFileBytes int64   `json:"snapshot_file_bytes"`
	MappedLookupsPerS float64 `json:"mapped_lookups_per_s"`
	// SmallCampaignProbesPerS is the same report's small-campaign probing
	// rate (the current probes_per_s), and RateVsSmallCampaign divides it
	// by this block's ProbesPerS: the per-probe slowdown at scale. The
	// span-resident probe path keeps it within 1.5x — both regimes now run
	// the same cold per-span resolve instead of a memo that only the small
	// campaign could afford.
	SmallCampaignProbesPerS float64 `json:"small_campaign_probes_per_s,omitempty"`
	RateVsSmallCampaign     float64 `json:"rate_vs_small_campaign,omitempty"`
}

// codecBench times the v2 columnar run format on a real census round.
// (BENCH_4 records the 5.5x it gained over the gen-1 gob+flate writer,
// which is gone; LoadRun still reads gen-1 files.)
type codecBench struct {
	VPs     int `json:"vps"`
	Targets int `json:"targets"`
	// Samples is the number of non-empty matrix cells; bytes-per-sample
	// divides the encoded size by it.
	Samples          int     `json:"samples"`
	V2EncodeNs       float64 `json:"v2_encode_ns"`
	V2DecodeNs       float64 `json:"v2_decode_ns"`
	V2Bytes          int     `json:"v2_bytes"`
	V2BytesPerSample float64 `json:"v2_bytes_per_sample"`
}

// analyzeAllBench compares the static-chunk analysis partitioning (each
// worker owns one contiguous 1/workers slice of the target list — idle as
// soon as its slice runs dry) against the work-stealing loop that replaced
// it, over the same combined matrix.
type analyzeAllBench struct {
	VPs         int     `json:"vps"`
	Targets     int     `json:"targets"`
	Workers     int     `json:"workers"`
	StaticNs    float64 `json:"static_chunk_ns_op"`
	WorkStealNs float64 `json:"work_stealing_ns_op"`
	Speedup     float64 `json:"speedup"`
	Anycast24s  int     `json:"anycast_24s"`
}

// incrementalBench is the longitudinal re-analysis workload (Sec. 3.2: one
// full census, then monthly patch rounds re-probing only the churned
// slice of targets): the combination is analyzed after every round both
// ways — batch (re-Combine all rounds + AnalyzeAll from scratch) and
// incremental (fold + dirty-set analysis with cached detection
// certificates) — with the per-round outcomes verified equal.
type incrementalBench struct {
	Rounds           int       `json:"rounds"`
	VPs              int       `json:"vps_per_round"`
	Targets          int       `json:"targets"`
	DirtyFractions   []float64 `json:"dirty_fraction_per_round"`
	BatchWallS       float64   `json:"batch_wall_s"`
	IncrementalWallS float64   `json:"incremental_wall_s"`
	Speedup          float64   `json:"speedup"`
	CertHitRate      float64   `json:"cert_hit_rate"`
	Agree            bool      `json:"outcomes_agree"`
}

// distributedBench compares one campaign probed in-process against the
// same campaign leased across an in-process agent fleet (coordinator +
// net.Pipe agents speaking the shard stream protocol), and checks the
// two combined matrices are byte-identical.
type distributedBench struct {
	Agents      int `json:"agents"`
	Censuses    int `json:"censuses"`
	VPsPerRound int `json:"vps_per_round"`
	Targets     int `json:"targets"`
	// SingleWallS / DistributedWallS time the probing rounds only (the
	// world, blacklist, and analysis are shared context).
	SingleWallS    float64 `json:"single_process_wall_s"`
	SinglePeakHeap uint64  `json:"single_process_peak_heap_bytes"`
	DistribWallS   float64 `json:"distributed_wall_s"`
	// CoordPeakHeap is the coordinator-process high-water heap while the
	// fleet probes; in-process agents share the heap, so this bounds the
	// whole cluster from above.
	CoordPeakHeap uint64 `json:"coordinator_peak_heap_bytes"`
	Leases        int    `json:"leases"`
	FramesFolded  int    `json:"frames_folded"`
	// Identical is the acceptance gate: combined rows, greylist, and VP
	// union must match the single-process campaign byte for byte.
	Identical bool `json:"identical"`
}

// routeServingBench is the routing front-end headline: the per-query
// answer path (decode + decide + encode, the unit every UDP listener
// runs) measured in-process for throughput and allocations, the same
// path measured over real loopback sockets in both load shapes, and a
// live snapshot-swap flatness check — throughput while a dozen mapped
// snapshot generations publish under load must stay within 10% of
// steady state.
type routeServingBench struct {
	Service    string `json:"service"`
	Anycast24s int    `json:"anycast_24s"`
	Workers    int    `json:"workers"`
	// AnswerPathQPS is the aggregate in-process answer-path throughput
	// (the per-listener packet work with the socket syscalls factored
	// out); AnswerAllocsPerQuery is heap allocations per query over that
	// run (the acceptance bound is zero).
	AnswerPathQPS        float64 `json:"answer_path_qps"`
	AnswerAllocsPerQuery float64 `json:"answer_allocs_per_query"`
	// The UDP numbers cross real loopback sockets: closed loop (each
	// worker sends, waits, repeats) and open loop (paced arrivals,
	// answers matched by DNS ID).
	UDPListeners  int     `json:"udp_listeners"`
	UDPClosedQPS  float64 `json:"udp_closed_loop_qps"`
	UDPClosedP99  float64 `json:"udp_closed_loop_p99_us"`
	UDPOpenRate   float64 `json:"udp_open_loop_offered_qps"`
	UDPOpenQPS    float64 `json:"udp_open_loop_qps"`
	UDPOpenP99    float64 `json:"udp_open_loop_p99_us"`
	// SteadyQPS and SwappingQPS are answer-path runs without and with a
	// concurrent publisher cycling SwapVersions mmap-backed snapshot
	// generations; SwapRatio = swapping/steady.
	SwapVersions int     `json:"swap_versions"`
	SteadyQPS    float64 `json:"steady_qps"`
	SwappingQPS  float64 `json:"swapping_qps"`
	SwapRatio    float64 `json:"swap_throughput_ratio"`
	SwapFlat     bool    `json:"swap_flat_within_10pct"`
	Note         string  `json:"note,omitempty"`
}

type benchReport struct {
	Bench    string `json:"bench"`
	Go       string `json:"go"`
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	CPUs     int    `json:"cpus"`
	Captured string `json:"captured"`

	Unicast24s int    `json:"unicast24s"`
	Censuses   int    `json:"censuses"`
	Seed       uint64 `json:"seed"`

	Baseline benchMetrics `json:"baseline"`
	Current  benchMetrics `json:"current"`
	// SpeedupFullCampaign is baseline/current for the FullCampaign time —
	// the regression gate: the streaming data path must not slow the
	// campaign down. It is only emitted when the baseline was measured on
	// a machine with the same CPU count; otherwise the ratio is a machine
	// artifact (BENCH_7/8 reported 0.64x/0.48x purely from comparing a
	// multi-core baseline against a 1-CPU box) and a baseline_cpu_mismatch
	// note replaces it.
	SpeedupFullCampaign float64 `json:"speedup_full_campaign,omitempty"`

	// Notes carries measurement caveats that numbers alone would hide.
	Notes []string `json:"notes,omitempty"`

	// Stream is the bounded-memory campaign at streaming scale (absent
	// when disabled with -stream-unicast24s=0).
	Stream *streamBench `json:"stream_campaign,omitempty"`
	// PaperScale is the million-target pipelined campaign (absent when
	// disabled with -paper-unicast24s=0).
	PaperScale *paperScaleBench `json:"paper_scale_campaign,omitempty"`
	// FullScale is the full paper-scale census: the 6.6M responsive /24s
	// of the paper's Sec. 3 censuses on one box (absent when disabled with
	// -full-scale-unicast24s=0).
	FullScale *paperScaleBench `json:"full_scale_campaign,omitempty"`
	// Codec times v2 columnar run persistence.
	Codec *codecBench `json:"run_codec,omitempty"`
	// AnalyzeAll compares static-chunk vs work-stealing analysis
	// partitioning.
	AnalyzeAll *analyzeAllBench `json:"analyze_all,omitempty"`
	// Incremental is the longitudinal re-analysis workload, batch vs
	// incremental.
	Incremental *incrementalBench `json:"incremental_analysis,omitempty"`
	// Distributed compares the single-process campaign against the same
	// rounds leased across an in-process agent fleet.
	Distributed *distributedBench `json:"distributed_campaign,omitempty"`
	// Route is the routing front-end serving headline.
	Route *routeServingBench `json:"route_serving,omitempty"`
}

// seedBaseline holds the pre-streaming numbers: the BENCH_3 "current"
// column, measured by cmd/benchreport -benchjson at commit 3751575 on the
// machine that produced the committed BENCH_3.json (CPU count unrecorded,
// hence no cpus field). It seeds the baseline the first time the file is
// written; after that the file's own baseline is preserved across re-runs.
var seedBaseline = benchMetrics{
	FullCampaignNs: 1_871_134_144,
	ProbesPerS:     8.66e6,
	LookupsPerS:    2.90e7,
	AllocsPerProbe: 0.00036,
	Note: "pre-change cmd/benchreport -benchjson at commit 3751575 " +
		"(BENCH_3 current): memoized probe path, batch combine, gob+flate runs",
}

// benchName derives the trajectory-point name from the output filename:
// -benchjson BENCH_4.json labels the report BENCH_4.
func benchName(path string) string {
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	if name == "" {
		return "BENCH"
	}
	return strings.ToUpper(name)
}

// writeBenchJSON measures the current benchmark trajectory point and writes
// it next to the baseline. lab, labElapsed and labHeap come from the
// experiment run the caller already paid for; streamUnicast sizes the
// bounded-memory streaming headline (0 skips it).
func writeBenchJSON(path string, lab *experiments.Lab, labElapsed time.Duration, labPeakHeap uint64, labGC uint32, streamUnicast, paperUnicast, fullScaleUnicast int) error {
	rep := benchReport{
		Bench:      benchName(path),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Captured:   time.Now().UTC().Format(time.RFC3339),
		Unicast24s: lab.Config.Unicast24s,
		Censuses:   lab.Config.Censuses,
		Seed:       lab.Config.Seed,
		Baseline:   seedBaseline,
	}
	// A baseline measured earlier on this machine outranks the built-in
	// seed: keep it so the trajectory stays comparable across re-runs.
	if prev, err := os.ReadFile(path); err == nil {
		var old benchReport
		if json.Unmarshal(prev, &old) == nil && old.Baseline.FullCampaignNs > 0 {
			rep.Baseline = old.Baseline
		}
	}

	fmt.Printf("bench: full campaign at BenchmarkFullCampaign scale ... ")
	rep.Current.FullCampaignNs = measureFullCampaign()
	fmt.Printf("%.2fs\n", rep.Current.FullCampaignNs/1e9)

	rep.Current.CampaignWallclockS = labElapsed.Seconds()
	rep.Current.PeakHeapBytes = labPeakHeap
	rep.Current.GCCycles = labGC
	rep.Current.CPUs = runtime.NumCPU()

	fmt.Printf("bench: probing loop ... ")
	rep.Current.ProbesPerS, rep.Current.AllocsPerProbe = measureProbing(lab)
	fmt.Printf("%.0f probes/s, %.4f allocs/probe\n", rep.Current.ProbesPerS, rep.Current.AllocsPerProbe)

	fmt.Printf("bench: serving lookups ... ")
	rep.Current.LookupsPerS = measureLookups(lab)
	fmt.Printf("%.0f lookups/s\n", rep.Current.LookupsPerS)

	// The cross-commit ratio is only meaningful machine-to-same-machine:
	// the campaign fans out across cores, so a multi-core baseline against
	// a 1-CPU current (or vice versa) measures the hardware, not the code.
	switch {
	case rep.Current.FullCampaignNs <= 0:
	case rep.Baseline.CPUs == rep.Current.CPUs:
		rep.SpeedupFullCampaign = rep.Baseline.FullCampaignNs / rep.Current.FullCampaignNs
	default:
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"baseline_cpu_mismatch: baseline measured on a %s machine, this report on a %d-CPU one; "+
				"speedup_full_campaign is omitted — compare full_campaign_ns_op across reports only when "+
				"their cpus fields match", cpusLabel(rep.Baseline.CPUs), rep.Current.CPUs))
	}

	fmt.Printf("bench: run codec (v2) ... ")
	rep.Codec = measureCodec(lab)
	if rep.Codec != nil {
		fmt.Printf("%.2f B/sample, %.1f ms encode, %.1f ms decode\n",
			rep.Codec.V2BytesPerSample, rep.Codec.V2EncodeNs/1e6, rep.Codec.V2DecodeNs/1e6)
	} else {
		fmt.Printf("skipped (no retained runs)\n")
	}

	fmt.Printf("bench: analyze-all partitioning (static chunks vs work stealing) ... ")
	rep.AnalyzeAll = measureAnalyzeAll(lab)
	if rep.AnalyzeAll != nil {
		fmt.Printf("%.2fs vs %.2fs, %.2fx\n",
			rep.AnalyzeAll.StaticNs/1e9, rep.AnalyzeAll.WorkStealNs/1e9, rep.AnalyzeAll.Speedup)
	} else {
		fmt.Printf("skipped (paths disagree or nothing detected)\n")
	}

	fmt.Printf("bench: distributed campaign (1 process vs 4 agents) ... ")
	rep.Distributed = measureDistributed(lab, 4)
	if rep.Distributed != nil {
		fmt.Printf("%.2fs vs %.2fs, coordinator peak heap %.0f MiB, identical=%v\n",
			rep.Distributed.SingleWallS, rep.Distributed.DistribWallS,
			float64(rep.Distributed.CoordPeakHeap)/(1<<20), rep.Distributed.Identical)
	} else {
		fmt.Printf("skipped (round failed)\n")
	}

	fmt.Printf("bench: route serving (answer path, UDP loopback, swap flatness) ... ")
	rep.Route = measureRouteServing(lab)
	if rep.Route != nil {
		fmt.Printf("%.2fM qps answer path (%.4f allocs/q), UDP closed %.0f qps p99 %.0fus, swap ratio %.2f (flat=%v)\n",
			rep.Route.AnswerPathQPS/1e6, rep.Route.AnswerAllocsPerQuery,
			rep.Route.UDPClosedQPS, rep.Route.UDPClosedP99,
			rep.Route.SwapRatio, rep.Route.SwapFlat)
	} else {
		fmt.Printf("skipped (no anycast findings)\n")
	}

	fmt.Printf("bench: longitudinal re-analysis (batch vs incremental) ... ")
	rep.Incremental = measureIncremental(lab, 6, 200)
	fmt.Printf("%.1fs vs %.1fs, %.2fx, cert hit rate %.0f%%, agree=%v\n",
		rep.Incremental.BatchWallS, rep.Incremental.IncrementalWallS,
		rep.Incremental.Speedup, 100*rep.Incremental.CertHitRate, rep.Incremental.Agree)

	if streamUnicast > 0 {
		fmt.Printf("bench: streaming campaign at %d unicast /24s ... ", streamUnicast)
		rep.Stream = measureStreamCampaign(streamUnicast, lab.Config.Seed)
		fmt.Printf("%.1fs, peak heap %.0f MiB (dense all-rounds %.0f MiB, bounded=%v)\n",
			rep.Stream.WallclockS, float64(rep.Stream.PeakHeapBytes)/(1<<20),
			float64(rep.Stream.DenseAllRoundsBytes)/(1<<20), rep.Stream.PeakHeapBounded)
	}

	if paperUnicast > 0 {
		fmt.Printf("bench: paper-scale pipelined campaign at %d unicast /24s ... ", paperUnicast)
		rep.PaperScale = measurePaperScaleCampaign(paperUnicast, lab.Config.Seed)
		if rep.PaperScale != nil {
			fmt.Printf("%d targets in %.0fs, %.2fM probes/s, peak heap %.0f MiB (%.0f B/target, bounded=%v), mmap serve %.1fM lookups/s\n",
				rep.PaperScale.Targets, rep.PaperScale.WallclockS, rep.PaperScale.ProbesPerS/1e6,
				float64(rep.PaperScale.PeakHeapBytes)/(1<<20), rep.PaperScale.PeakHeapPerTarget,
				rep.PaperScale.PeakHeapBounded, rep.PaperScale.MappedLookupsPerS/1e6)
		} else {
			fmt.Printf("failed\n")
		}
	}

	if fullScaleUnicast > 0 {
		fmt.Printf("bench: full-scale census at %d unicast /24s (the paper's 6.6M responsive /24s) ... ", fullScaleUnicast)
		rep.FullScale = measurePaperScaleCampaign(fullScaleUnicast, lab.Config.Seed)
		if rep.FullScale != nil {
			rep.FullScale.SmallCampaignProbesPerS = rep.Current.ProbesPerS
			if rep.FullScale.ProbesPerS > 0 {
				rep.FullScale.RateVsSmallCampaign = rep.Current.ProbesPerS / rep.FullScale.ProbesPerS
			}
			fmt.Printf("%d targets in %.0fs, %.2fM probes/s (%.2fx the small-campaign rate), peak heap %.0f MiB (%.0f B/target, bounded=%v)\n",
				rep.FullScale.Targets, rep.FullScale.WallclockS, rep.FullScale.ProbesPerS/1e6,
				rep.FullScale.RateVsSmallCampaign,
				float64(rep.FullScale.PeakHeapBytes)/(1<<20), rep.FullScale.PeakHeapPerTarget,
				rep.FullScale.PeakHeapBounded)
		} else {
			fmt.Printf("failed\n")
		}
	}

	rep.Current.Note = "measured live by cmd/benchreport -benchjson"

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	if rep.SpeedupFullCampaign > 0 {
		fmt.Printf("bench: %s written (full campaign %.2fx vs baseline)\n\n", path, rep.SpeedupFullCampaign)
	} else {
		fmt.Printf("bench: %s written (no speedup ratio: baseline cpus differ)\n\n", path)
	}
	return nil
}

// cpusLabel renders a baseline CPU count for the mismatch note; baselines
// predating the cpus field read as unknown.
func cpusLabel(cpus int) string {
	if cpus == 0 {
		return "multi-core (cpu count unrecorded)"
	}
	return fmt.Sprintf("%d-CPU", cpus)
}

// measureFullCampaign times one complete campaign at exactly the
// BenchmarkFullCampaign configuration so the number is comparable to the
// committed baseline ns/op.
func measureFullCampaign() float64 {
	cfg := experiments.DefaultLabConfig()
	cfg.Unicast24s = 4000
	cfg.Seed = 3000
	start := time.Now()
	l := experiments.NewLab(cfg)
	elapsed := time.Since(start)
	if len(l.Findings) == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds())
}

// measureProbing times steady-state single-VP probing runs over the pruned
// hitlist and counts heap allocations per probe via the runtime's
// cumulative malloc counter (GC cannot decrease it).
func measureProbing(lab *experiments.Lab) (probesPerS, allocsPerProbe float64) {
	vp := lab.PL.VPs()[0]
	targets := lab.Hitlist.Targets()
	cfg := prober.Config{Seed: lab.Config.Seed, Round: 1}
	sink := func(record.Sample) {}
	// Warm the per-VP session cache and the frozen greylist view so the
	// measured passes only see the steady state the census rounds run in.
	if _, _, err := prober.Run(lab.World, vp, targets, lab.Black, cfg, sink); err != nil {
		return 0, 0
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var sent int64
	const reps = 3
	for i := 0; i < reps; i++ {
		stats, _, err := prober.Run(lab.World, vp, targets, lab.Black, cfg, sink)
		if err != nil {
			return 0, 0
		}
		sent += int64(stats.Sent)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if sent == 0 || elapsed <= 0 {
		return 0, 0
	}
	return float64(sent) / elapsed.Seconds(),
		float64(after.Mallocs-before.Mallocs) / float64(sent)
}

// measureLookups times the anycastd snapshot index over an alternating
// anycast/unicast address mix (the BenchmarkStoreLookupCold workload).
func measureLookups(lab *experiments.Lab) float64 {
	snap := store.NewSnapshot(lab.Findings, lab.World.Registry,
		uint64(lab.Config.Censuses), lab.Config.Censuses)
	var ips []netsim.IP
	for i, f := range lab.Findings {
		ips = append(ips, f.Prefix.Host(byte(i)))
		ips = append(ips, (f.Prefix + 1).Host(byte(i)))
	}
	if len(ips) == 0 {
		return 0
	}
	const n = 2_000_000
	start := time.Now()
	for i := 0; i < n; i++ {
		snap.Lookup(ips[i%len(ips)])
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return n / elapsed.Seconds()
}

// heapSampler tracks the high-water live heap while a measurement runs: a
// background goroutine polls runtime.ReadMemStats every few milliseconds,
// so the reported peak covers transient states (one round folding while the
// previous one is not yet collected), not just the quiescent end state.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	peak    uint64
	startGC uint32
}

func startHeapSampler() *heapSampler {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &heapSampler{
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		peak:    ms.HeapAlloc,
		startGC: ms.NumGC,
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak {
					s.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak live heap and the number of GC
// cycles since the sampler started.
func (s *heapSampler) Stop() (peakHeap uint64, gcCycles uint32) {
	close(s.stop)
	<-s.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	return s.peak, ms.NumGC - s.startGC
}

// measureStreamCampaign runs the full Fig. 1 workflow at streaming scale —
// world, blacklist census, rounds folding through a census.Campaign with
// every round's matrix released after its fold — and checks the sampled
// peak heap against the footprint the batch path would need just to keep
// every round's matrix alive. Once that bound is known (after the target
// list is pruned, before the first round), the campaign runs under a
// runtime memory limit of 90% of it: the GC is forced to keep transient
// garbage inside the budget, the way a production deployment would run
// under GOMEMLIMIT.
func measureStreamCampaign(unicast int, seed uint64) *streamBench {
	lcfg := experiments.DefaultLabConfig()
	vpsPerRound := lcfg.VPsPerCensus[:lcfg.Censuses]

	runtime.GC()
	sampler := startHeapSampler()
	start := time.Now()

	wcfg := netsim.DefaultConfig()
	wcfg.Seed = seed
	wcfg.Unicast24s = unicast
	world := netsim.New(wcfg)
	db := cities.Default()
	pl := platform.PlanetLab(db)
	table := bgp.FromWorld(world)
	full := hitlist.FromWorld(world)
	black, err := prober.BuildBlacklist(world, pl.VPs()[0], full.Targets(), prober.Config{Seed: seed})
	if err != nil {
		sampler.Stop()
		return nil
	}
	targets := full.PruneNeverAlive().Without(black.Targets())

	var dense uint64
	for _, v := range vpsPerRound {
		dense += uint64(v) * uint64(targets.Len()) * 4
	}
	limit := int64(dense - dense/10)
	if limit < 192<<20 {
		limit = 192 << 20
	}
	prevLimit := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(prevLimit)

	cp := census.NewCampaign(census.CampaignConfig{Census: census.Config{Seed: seed}})
	for round := uint64(1); round <= uint64(lcfg.Censuses); round++ {
		vps := pl.Sample(vpsPerRound[round-1], seed+round)
		if _, err := cp.ExecuteRound(context.Background(), world, vps, targets, black, round); err != nil {
			sampler.Stop()
			return nil
		}
		// The folded round is garbage now; collect it before the next
		// round allocates its matrix, as a GOMEMLIMIT-governed deployment
		// effectively does.
		runtime.GC()
	}
	outcomes := census.AnalyzeAll(db, cp.Combined(), core.Options{}, 2, 0)
	findings := analysis.Attribute(outcomes, table)

	elapsed := time.Since(start)
	peak, gcs := sampler.Stop()
	return &streamBench{
		Unicast24s:          unicast,
		Censuses:            lcfg.Censuses,
		VPsPerRound:         vpsPerRound,
		Targets:             targets.Len(),
		WallclockS:          elapsed.Seconds(),
		PeakHeapBytes:       peak,
		GCCycles:            gcs,
		DenseAllRoundsBytes: dense,
		MemoryLimitBytes:    uint64(limit),
		PeakHeapBounded:     peak < dense,
		Anycast24s:          len(findings),
	}
}

// measurePaperScaleCampaign runs the million-target headline: the Fig. 1
// workflow with shard-pipelined rounds (probe spans fold into the flat-slab
// combined matrix as they land — no whole-round matrix ever materializes),
// under a GOMEMLIMIT of 90% of the dense all-rounds footprint, followed by
// snapshot persistence and an mmap-served lookup measurement.
func measurePaperScaleCampaign(unicast int, seed uint64) *paperScaleBench {
	const censuses = 2
	const vpsPer = 261

	runtime.GC()
	sampler := startHeapSampler()
	start := time.Now()

	wcfg := netsim.DefaultConfig()
	wcfg.Seed = seed
	wcfg.Unicast24s = unicast
	world := netsim.New(wcfg)
	db := cities.Default()
	pl := platform.PlanetLab(db)
	table := bgp.FromWorld(world)
	full := hitlist.FromWorld(world)
	black, err := prober.BuildBlacklist(world, pl.VPs()[0], full.Targets(), prober.Config{Seed: seed})
	if err != nil {
		sampler.Stop()
		return nil
	}
	targets := full.PruneNeverAlive().Without(black.Targets())

	var vpsPerRound []int
	var dense uint64
	for round := uint64(1); round <= censuses; round++ {
		n := len(pl.Sample(vpsPer, seed+round))
		vpsPerRound = append(vpsPerRound, n)
		dense += uint64(n) * uint64(targets.Len()) * 4
	}
	// GOMEMLIMIT at 75% of the dense all-rounds footprint. The GC fills
	// whatever limit it is given, so the sampled peak tracks the limit,
	// not the live set: at 90% the peak-per-target landed within a
	// fraction of a percent of the dense bound. 75% leaves real headroom
	// over the live set (the combined slab is ~half of dense) while
	// keeping the peak well under what the batch path would hold.
	limit := int64(dense - dense/4)
	if limit < 1<<30 {
		limit = 1 << 30
	}
	prevLimit := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(prevLimit)

	pc := census.PipelineConfig{}
	cp := census.NewCampaign(census.CampaignConfig{Census: census.Config{Seed: seed}})
	var probes uint64
	probeStart := time.Now()
	for round := uint64(1); round <= censuses; round++ {
		vps := pl.Sample(vpsPer, seed+round)
		sum, err := cp.ExecuteRoundPipelined(context.Background(), world, vps, targets, black, round, pc)
		if err != nil {
			sampler.Stop()
			return nil
		}
		probes += uint64(sum.Probes)
	}
	probingWall := time.Since(probeStart)

	outcomes := census.AnalyzeAll(db, cp.Combined(), core.Options{}, 2, 0)
	findings := analysis.Attribute(outcomes, table)

	elapsed := time.Since(start)
	peak, gcs := sampler.Stop()

	out := &paperScaleBench{
		Unicast24s:          unicast,
		Censuses:            censuses,
		VPsPerRound:         vpsPerRound,
		Targets:             targets.Len(),
		SpanTargets:         pc.EffectiveSpanTargets(),
		WallclockS:          elapsed.Seconds(),
		ProbingWallS:        probingWall.Seconds(),
		Probes:              probes,
		ProbesPerS:          float64(probes) / probingWall.Seconds(),
		PeakHeapBytes:       peak,
		PeakHeapPerTarget:   float64(peak) / float64(targets.Len()),
		GCCycles:            gcs,
		DenseAllRoundsBytes: dense,
		MemoryLimitBytes:    uint64(limit),
		PeakHeapBounded:     peak < dense,
		Anycast24s:          len(findings),
	}

	// The campaign's product as anycastd would serve it: persisted, then
	// reopened mmap-backed and hammered with the alternating address mix.
	dir, err := os.MkdirTemp("", "acm-bench-snap")
	if err != nil {
		return out
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "census.snap")
	snap := store.NewSnapshot(findings, world.Registry, censuses, censuses)
	if err := store.SaveSnapshotFile(snapPath, snap); err != nil {
		return out
	}
	if fi, err := os.Stat(snapPath); err == nil {
		out.SnapshotFileBytes = fi.Size()
	}
	mapped, err := store.OpenSnapshotFile(snapPath)
	if err != nil {
		return out
	}
	defer mapped.Close()
	var ips []netsim.IP
	for i, f := range findings {
		ips = append(ips, f.Prefix.Host(byte(i)))
		ips = append(ips, (f.Prefix + 1).Host(byte(i)))
	}
	if len(ips) > 0 {
		const n = 2_000_000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			mapped.Lookup(ips[i%len(ips)])
		}
		if e := time.Since(t0); e > 0 {
			out.MappedLookupsPerS = n / e.Seconds()
		}
	}
	return out
}

// measureRouteServing benchmarks the routing front-end over the lab's
// findings: the in-process answer path (decode, decide, encode — the
// per-packet work each UDP listener does) for aggregate throughput and
// allocations per query, the same path over real loopback sockets in
// closed- and open-loop shape, and answer-path throughput while a dozen
// mmap-backed snapshot generations publish under load.
func measureRouteServing(lab *experiments.Lab) *routeServingBench {
	if len(lab.Findings) == 0 {
		return nil
	}
	svc := lab.Findings[0].Prefix
	st := store.New(store.Options{})
	st.Publish(store.NewSnapshot(lab.Findings, lab.World.Registry, 1, 1))
	eng, err := route.NewEngine(route.Config{
		Store:   st,
		Locator: route.HashLocator{Seed: lab.Config.Seed},
		VPs:     lab.PL.VPs(),
	})
	if err != nil {
		return nil
	}
	responder, err := route.NewResponder(eng, "", 30, nil)
	if err != nil {
		return nil
	}
	zone, err := route.EncodeName(nil, route.DefaultZone)
	if err != nil {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	out := &routeServingBench{
		Service:    svc.String(),
		Anycast24s: len(lab.Findings),
		Workers:    workers,
		Note: fmt.Sprintf("answer_path_qps is the in-process decode+decide+encode path over %d workers "+
			"with 1024 rotating clients (the per-listener packet work without socket syscalls, "+
			"including the per-worker decision cache); the udp_* numbers cross real loopback "+
			"sockets and are bounded by this machine's %d CPU(s)", workers, runtime.NumCPU()),
	}

	src := netip.MustParseAddrPort("192.0.2.1:5353")
	// Prebuilt request packets over rotating clients: the measured loop
	// is the server's work (decode, decide, encode), not the
	// generator's.
	reqs := make([][]byte, 1024)
	for i := range reqs {
		client := netsim.Prefix24(uint32(0x0b0000) + uint32(i))
		reqs[i] = route.AppendQuery(nil, uint16(i), svc, route.PolicyNone, zone, 1, client)
	}
	// answerLoop runs iters queries per worker through the answer path
	// and returns aggregate throughput.
	answerLoop := func(iters int) float64 {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := &route.Scratch{}
				for i := 0; i < iters; i++ {
					responder.Respond(sc, reqs[(w*iters+i)&1023], src)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(t0)
		if elapsed <= 0 {
			return 0
		}
		return float64(iters*workers) / elapsed.Seconds()
	}

	// Warm, then measure throughput and mallocs over a counted run.
	answerLoop(10_000)
	const perWorker = 1_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out.AnswerPathQPS = answerLoop(perWorker)
	runtime.ReadMemStats(&after)
	out.AnswerAllocsPerQuery = float64(after.Mallocs-before.Mallocs) / float64(perWorker*workers)

	// Swap flatness: the same loop while a publisher cycles mmap-backed
	// snapshot generations. The generations are opened (file read + mmap)
	// before the measured window starts — the claim under test is the
	// cost of the atomic swap itself plus serving across it, not snapshot
	// loading, which on a 1-CPU box would otherwise steal the measuring
	// worker's time slice. Size the window from the steady rate so all
	// publishes land inside it.
	runtime.GC()
	out.SteadyQPS = answerLoop(perWorker / 2)
	const swapVersions = 12
	out.SwapVersions = swapVersions
	swapDir, err := os.MkdirTemp("", "acm-route-swap")
	if err == nil {
		defer os.RemoveAll(swapDir)
		snapPath := filepath.Join(swapDir, "census.snap")
		if store.SaveSnapshotFile(snapPath, store.NewSnapshot(lab.Findings, lab.World.Registry, 1, 1)) == nil {
			var gens []*store.Snapshot
			for k := 0; k < swapVersions; k++ {
				snap, err := store.OpenSnapshotFile(snapPath)
				if err != nil {
					break
				}
				gens = append(gens, snap)
			}
			window := perWorker / 2
			if out.SteadyQPS > 0 {
				// Aim for a ~600ms window; the publisher spreads its 12
				// swaps over the first ~480ms of it.
				window = int(out.SteadyQPS * 0.6 / float64(workers))
			}
			stopPub := make(chan struct{})
			var pubWG sync.WaitGroup
			pubWG.Add(1)
			go func() {
				defer pubWG.Done()
				for k, snap := range gens {
					select {
					case <-stopPub:
						// Unpublished generations still own a mapping ref.
						for _, s := range gens[k:] {
							s.Close()
						}
						return
					case <-time.After(40 * time.Millisecond):
					}
					st.Publish(snap)
				}
			}()
			runtime.GC()
			out.SwappingQPS = answerLoop(window)
			close(stopPub)
			pubWG.Wait()
			if out.SteadyQPS > 0 {
				out.SwapRatio = out.SwappingQPS / out.SteadyQPS
				out.SwapFlat = out.SwapRatio >= 0.9
			}
		}
	}

	// The same path over real loopback sockets.
	srv, err := route.NewServer(route.ServerConfig{Addr: "127.0.0.1:0", Engine: eng})
	if err != nil {
		return out
	}
	defer srv.Close()
	out.UDPListeners = srv.Listeners()
	addr := srv.Addr().String()
	if res, err := route.Run(route.LoadConfig{
		Addr: addr, Workers: workers, Queries: 50_000, Service: svc,
	}); err == nil && res.Received > 0 {
		out.UDPClosedQPS = res.QPS
		out.UDPClosedP99 = float64(res.P99.Microseconds())
	}
	openRate := out.UDPClosedQPS * 0.8
	if openRate < 1000 {
		openRate = 1000
	}
	out.UDPOpenRate = openRate
	if res, err := route.Run(route.LoadConfig{
		Addr: addr, Workers: workers, RatePerS: openRate, Duration: 2 * time.Second, Service: svc,
	}); err == nil && res.Received > 0 {
		out.UDPOpenQPS = res.QPS
		out.UDPOpenP99 = float64(res.P99.Microseconds())
	}
	return out
}

// analyzeAllStatic is the pre-change AnalyzeAll: workers own contiguous
// 1/workers chunks of the target list, so a worker whose chunk holds only
// cheap unicast targets idles while the anycast-dense chunks finish. Kept
// here verbatim (over the exported census/core API) as the comparison
// baseline for the work-stealing loop.
func analyzeAllStatic(db *cities.DB, c *census.Combined, opt core.Options, minSamples, workers int) []census.Outcome {
	if minSamples < 2 {
		minSamples = 2
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	idx := cities.NewIndex(db, 10)
	nVP := len(c.VPs)
	vpDist := make([]float64, nVP*nVP)
	for i := 0; i < nVP; i++ {
		for j := i + 1; j < nVP; j++ {
			d := geo.DistanceKm(c.VPs[i].Loc, c.VPs[j].Loc)
			vpDist[i*nVP+j], vpDist[j*nVP+i] = d, d
		}
	}
	results := make([]*core.Result, len(c.Targets))
	var wg sync.WaitGroup
	chunk := (len(c.Targets) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(c.Targets) {
			hi = len(c.Targets)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ms := make([]core.Measurement, 0, nVP)
			vpIdx := make([]int, 0, nVP)
			dist := core.CenterDist(func(a, b int) float64 {
				return vpDist[vpIdx[a]*nVP+vpIdx[b]]
			})
			for t := lo; t < hi; t++ {
				ms, vpIdx = c.AppendMeasurements(t, ms[:0], vpIdx[:0])
				if len(ms) < minSamples {
					continue
				}
				r := core.AnalyzeWithDist(idx, ms, dist, opt)
				if r.Anycast {
					results[t] = &r
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	var out []census.Outcome
	for t, r := range results {
		if r != nil {
			out = append(out, census.Outcome{Target: c.Targets[t], Result: *r})
		}
	}
	return out
}

// measureAnalyzeAll times both partitionings over the lab's combined
// matrix and checks they agree.
func measureAnalyzeAll(lab *experiments.Lab) *analyzeAllBench {
	c := lab.Combined
	workers := runtime.GOMAXPROCS(0)
	// Warm both paths once, checking agreement while at it.
	steal := census.AnalyzeAll(lab.Cities, c, core.Options{}, 2, workers)
	static := analyzeAllStatic(lab.Cities, c, core.Options{}, 2, workers)
	if len(steal) == 0 || len(steal) != len(static) {
		return nil
	}
	const reps = 3
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		census.AnalyzeAll(lab.Cities, c, core.Options{}, 2, workers)
	}
	stealNs := float64(time.Since(t0).Nanoseconds()) / reps
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		analyzeAllStatic(lab.Cities, c, core.Options{}, 2, workers)
	}
	staticNs := float64(time.Since(t0).Nanoseconds()) / reps
	return &analyzeAllBench{
		VPs:         len(c.VPs),
		Targets:     len(c.Targets),
		Workers:     workers,
		StaticNs:    staticNs,
		WorkStealNs: stealNs,
		Speedup:     staticNs / stealNs,
		Anycast24s:  len(steal),
	}
}

// measureDistributed runs the same probing rounds twice over the lab's
// world — once in-process, once leased across an agent fleet over
// net.Pipe — and checks byte-identity of the two campaigns.
func measureDistributed(lab *experiments.Lab, agents int) *distributedBench {
	const vpsPer = 200
	rounds := lab.Config.Censuses
	seed := lab.Config.Seed
	ccfg := census.Config{Seed: seed}
	targets := lab.Hitlist

	runtime.GC()
	sampler := startHeapSampler()
	t0 := time.Now()
	single := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	for round := uint64(1); round <= uint64(rounds); round++ {
		vps := lab.PL.Sample(vpsPer, seed+round)
		if _, err := single.ExecuteRound(context.Background(), lab.World, vps, targets, lab.Black, round); err != nil {
			sampler.Stop()
			return nil
		}
	}
	singleWall := time.Since(t0)
	singlePeak, _ := sampler.Stop()

	runtime.GC()
	sampler = startHeapSampler()
	t0 = time.Now()
	dist := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	coord, err := cluster.NewCoordinator(cluster.Config{
		Campaign:  dist,
		Targets:   targets.Targets(),
		Blacklist: lab.Black,
		Census:    ccfg,
		World:     lab.World.Config(),
	})
	if err != nil {
		sampler.Stop()
		return nil
	}
	fleet, err := cluster.NewHarness(coord, cluster.HarnessConfig{
		Agents: agents,
		Agent:  cluster.AgentConfig{World: lab.World, Capacity: 2},
	})
	if err != nil {
		coord.Close()
		sampler.Stop()
		return nil
	}
	ok := true
	for round := uint64(1); round <= uint64(rounds); round++ {
		vps := lab.PL.Sample(vpsPer, seed+round)
		if _, err := coord.ExecuteRound(context.Background(), round, vps); err != nil {
			ok = false
			break
		}
	}
	distWall := time.Since(t0)
	st := coord.Stats()
	fleet.Close()
	coordPeak, _ := sampler.Stop()
	if !ok {
		return nil
	}

	cs, cd := single.Combined(), dist.Combined()
	identical := cs != nil && cd != nil &&
		reflect.DeepEqual(cs.VPs, cd.VPs) &&
		reflect.DeepEqual(cs.Targets, cd.Targets) &&
		reflect.DeepEqual(cs.RTTus, cd.RTTus) &&
		reflect.DeepEqual(single.Greylist().Snapshot(), dist.Greylist().Snapshot())

	return &distributedBench{
		Agents:         agents,
		Censuses:       rounds,
		VPsPerRound:    vpsPer,
		Targets:        targets.Len(),
		SingleWallS:    singleWall.Seconds(),
		SinglePeakHeap: singlePeak,
		DistribWallS:   distWall.Seconds(),
		CoordPeakHeap:  coordPeak,
		Leases:         st.Leases,
		FramesFolded:   st.FramesFolded,
		Identical:      identical,
	}
}

// measureIncremental runs the longitudinal re-analysis workload through
// experiments.LongitudinalCampaign.
func measureIncremental(lab *experiments.Lab, rounds, vps int) *incrementalBench {
	r := lab.LongitudinalCampaign(rounds, vps)
	out := &incrementalBench{
		Rounds:           len(r.Rounds),
		VPs:              vps,
		Targets:          r.Targets,
		BatchWallS:       r.BatchWall.Seconds(),
		IncrementalWallS: r.IncrementalWall.Seconds(),
		Speedup:          r.Speedup,
		CertHitRate:      r.CertHitRate,
		Agree:            r.Agree,
	}
	for _, rd := range r.Rounds {
		out.DirtyFractions = append(out.DirtyFractions, rd.DirtyFraction)
	}
	return out
}

// measureCodec times v2 columnar save/load of the lab's first census
// round.
func measureCodec(lab *experiments.Lab) *codecBench {
	if len(lab.Runs) == 0 {
		return nil
	}
	run := lab.Runs[0]
	samples := 0
	for _, row := range run.RTTus {
		for _, v := range row {
			if v >= 0 {
				samples++
			}
		}
	}
	if samples == 0 {
		return nil
	}

	const reps = 3
	cb := &codecBench{VPs: len(run.VPs), Targets: len(run.Targets), Samples: samples}
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		buf.Reset()
		if err := census.SaveRun(&buf, run); err != nil {
			return nil
		}
	}
	cb.V2EncodeNs = float64(time.Since(t0).Nanoseconds()) / reps
	data := buf.Bytes()
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := census.LoadRun(bytes.NewReader(data)); err != nil {
			return nil
		}
	}
	cb.V2DecodeNs = float64(time.Since(t0).Nanoseconds()) / reps
	cb.V2Bytes = len(data)
	cb.V2BytesPerSample = float64(cb.V2Bytes) / float64(samples)
	return cb
}
