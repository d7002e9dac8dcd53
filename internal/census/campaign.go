package census

import (
	"math/bits"
	"sync/atomic"
	"time"

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
	// folded, analyze latency, dirty-set and greylist sizes, detection
	// counters). The instrument set usually outlives the campaign:
	// daemons register one Metrics per process and thread it through
	// every campaign they build.
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

	// dirty is a bitmap over targets: bit t is set when some combined
	// min-RTT cell of target t improved or a VP newly answered it since
	// the last TakeDirty.
	dirty []uint32

	// Open-round state (shard.go): the number of the round currently
	// open for folding, and which combined row slots belong to it.
	// BeginRound opens a round, FoldShard merges partial rows in any
	// order (FoldRun merges whole ones), FinishRound closes it.
	shardRound uint64
	shardOpen  bool
	shardSlots []bool

	analyzer     *Analyzer
	analysisWall atomic.Int64 // cumulative AnalyzeDirty nanoseconds
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
		cp.mergeCells(cp.combined.RTTus[slots[vi]], run.RTTus[vi], 0)
	}
	cp.grey.Merge(run.Greylist)
	return cp.FinishRound(run.Health)
}

// mergeCells is the fold kernel: it min-merges src — one vantage point's
// samples for targets [lo, lo+len(src)) — into the same cells dst of its
// combined row, and marks every target whose cell improved or was newly
// answered dirty. Dirty bits accumulate in a local word and flush on
// word-boundary crossings.
func (cp *Campaign) mergeCells(dst, src []int32, lo int) {
	dst = dst[:len(src)] // one bounds check here instead of one per cell
	word, mask := lo>>5, uint32(0)
	for t, v := range src {
		if v < 0 {
			continue
		}
		if dst[t] < 0 || v < dst[t] {
			dst[t] = v
			gt := lo + t
			if w := gt >> 5; w != word {
				cp.dirty[word] |= mask
				word, mask = w, 0
			}
			mask |= 1 << uint(gt&31)
		}
	}
	if mask != 0 {
		cp.dirty[word] |= mask
	}
}

// TakeDirty returns the sorted indices of every target whose combined
// row changed (a min-RTT cell improved, or a VP newly answered) since
// the previous TakeDirty, clearing the set. It must not run concurrently
// with a fold.
func (cp *Campaign) TakeDirty() []int {
	var out []int
	for w, v := range cp.dirty {
		if v == 0 {
			continue
		}
		cp.dirty[w] = 0
		base := w * 32
		for ; v != 0; v &= v - 1 {
			out = append(out, base+bits.TrailingZeros32(v))
		}
	}
	return out
}

// AttachAnalyzer binds an incremental analyzer to the campaign: folds
// keep marking dirty targets, and AnalyzeDirty refreshes exactly those.
func (cp *Campaign) AttachAnalyzer(a *Analyzer) { cp.analyzer = a }

// Analyzer returns the attached incremental analyzer, or nil.
func (cp *Campaign) Analyzer() *Analyzer { return cp.analyzer }

// AnalyzeDirty re-analyzes the targets dirtied since the last call
// through the attached analyzer and returns the dirty-set size. The
// outcomes afterwards match a batch AnalyzeAll over the current combined
// matrix bit for bit (TestCensusDeterminism). It must not run
// concurrently with a fold — the analysis reads the live matrix.
func (cp *Campaign) AnalyzeDirty() int {
	t0 := time.Now()
	dirty := cp.TakeDirty()
	before := cp.analyzer.Stats()
	cp.analyzer.Update(cp.combined, dirty)
	d := time.Since(t0)
	cp.analysisWall.Add(int64(d))
	cp.cfg.Metrics.analyzeObserved(d, len(dirty), before, cp.analyzer.Stats())
	return len(dirty)
}

// Outcomes returns the attached analyzer's current outcomes — the
// anycast targets of everything folded and analyzed so far, in target
// order.
func (cp *Campaign) Outcomes() []Outcome { return cp.analyzer.Outcomes() }

// AnalysisWall returns the cumulative wall time spent in AnalyzeDirty.
func (cp *Campaign) AnalysisWall() time.Duration {
	return time.Duration(cp.analysisWall.Load())
}

// Combined returns the minimum-RTT combination of every round folded so
// far, or nil before the first fold. The matrix is live: folding further
// rounds keeps updating it.
func (cp *Campaign) Combined() *Combined { return cp.combined }

// Greylist returns the union of every folded round's greylist.
func (cp *Campaign) Greylist() *prober.Greylist { return cp.grey }

// Health returns the campaign health aggregated over the folded rounds.
func (cp *Campaign) Health() CampaignHealth { return cp.health }
