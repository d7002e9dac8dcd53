package census

import (
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/prober"
)

// This file is the combined side of a census: a Campaign folds every
// round into one minimum-RTT matrix as its units land and lets the units
// go, so peak memory is O(combined + a span per worker) however many
// censuses run — the failure mode the paper's own Table 1 rewrite
// attacked (79 GB of text vs 6 GB of binary) never returns as rounds × V
// × T dense cells. Rounds arrive through ExecuteRoundPipelined
// (pipeline.go) or the cluster coordinator, both driving RoundSched
// (sched.go) into FoldShard (shard.go).
//
// The fold is exact, not approximate: per-cell minimum is commutative and
// associative and the greylist merge is a set union, so the combined
// matrix is byte-identical to the batch Combine of the same rounds'
// whole-round runs (TestCensusDeterminism).

// CampaignConfig tunes a campaign.
type CampaignConfig struct {
	// Census tunes each probing round (rate, seed, workers, retries).
	Census Config
	// Metrics, when set, receives fold/analysis observations (rounds
	// folded, analyze latency, greylist size, detection counters). The
	// instrument set usually outlives the campaign: daemons register one
	// Metrics per process and thread it through every campaign they build.
	Metrics *Metrics
}

// Campaign accumulates census rounds into a combined minimum-RTT matrix as
// they complete. The zero value is not usable; construct with NewCampaign.
// Campaign is not safe for concurrent use: one round is open at a time,
// and every fold into it runs under its one owner (the worker pool's
// mutex or the coordinator's loop).
type Campaign struct {
	cfg CampaignConfig

	combined *Combined
	byID     map[int]int // vp.ID -> row slot in combined
	arena    *slabArena  // backs combined rows
	grey     *prober.Greylist
	health   CampaignHealth

	// Open-round state (shard.go): the number of the round currently
	// open for folding, and which combined row slots belong to it.
	// BeginRound opens a round, FoldShard merges partial rows in any
	// order (FoldRun merges whole ones), FinishRound closes it.
	shardRound uint64
	shardOpen  bool
	shardSlots []bool
}

// NewCampaign returns an empty campaign.
func NewCampaign(cfg CampaignConfig) *Campaign {
	return &Campaign{
		cfg:  cfg,
		byID: make(map[int]int),
		grey: prober.NewGreylist(),
	}
}

// RoundSummary is the lightweight per-round record a campaign keeps once
// the round's units have folded: what cmd/census logs and the paper's
// per-census figures read, without the O(V×T) payload.
type RoundSummary struct {
	Round       uint64
	VPs         int
	Probes      int
	EchoTargets int
	GreylistLen int
	// Completion is each vantage point's simulated probing time, in
	// round order: the sum of its folded units' ShardStats.Completion
	// (Fig. 8).
	Completion []time.Duration
	Health     RunHealth
	Duration   time.Duration
}

// FoldRun merges one whole-round run into the campaign: per-cell minimum
// into the combined matrix, set union into the campaign greylist, health
// into the campaign summary. The run's target list must match the rounds
// folded before it. It is the fold of the ExecuteContext reference; no
// executor that serves calls it.
func (cp *Campaign) FoldRun(run *Run) error {
	slots, err := cp.BeginRound(run.Round, run.Targets, run.VPs)
	if err != nil {
		return err
	}
	for vi := range run.VPs {
		mergeCells(cp.combined.RTTus[slots[vi]], run.RTTus[vi])
	}
	cp.grey.Merge(run.Greylist)
	return cp.FinishRound(run.Health)
}

// mergeCells is the fold kernel: it min-merges src — one vantage point's
// samples for a span of targets — into the same cells dst of its combined
// row.
func mergeCells(dst, src []int32) {
	dst = dst[:len(src)] // one bounds check here instead of one per cell
	for t, v := range src {
		if v >= 0 && (dst[t] < 0 || v < dst[t]) {
			dst[t] = v
		}
	}
}

// Analyze runs detection, enumeration and geolocation over the combined
// matrix of every round folded so far (AnalyzeAll) and records the pass in
// the campaign's metrics: its latency and the detection counters. It needs
// at least one folded round and must not run concurrently with a fold.
// Analysis is not incremental: each round probes from a fresh
// vantage-point sample, and a vantage point new to the combined matrix
// changes every target it answers, so every caller analyzes the whole
// matrix once, after its last round.
func (cp *Campaign) Analyze(db *cities.DB, opt core.Options, minSamples, workers int) ([]Outcome, AnalyzerStats) {
	t0 := time.Now()
	outcomes, st := analyzeAll(db, cp.combined, opt, minSamples, workers)
	cp.cfg.Metrics.analyzeObserved(time.Since(t0), st)
	return outcomes, st
}

// Combined returns the minimum-RTT combination of every round folded so
// far, or nil before the first fold. The matrix is live: folding further
// rounds keeps updating it.
func (cp *Campaign) Combined() *Combined { return cp.combined }

// Greylist returns the union of every folded round's greylist.
func (cp *Campaign) Greylist() *prober.Greylist { return cp.grey }

// Health returns the campaign health aggregated over the folded rounds.
func (cp *Campaign) Health() CampaignHealth { return cp.health }
