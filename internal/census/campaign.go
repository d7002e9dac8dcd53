package census

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// This file is the streaming data path of the campaign. The batch path
// (Execute every round, keep every Run, Combine at the end) holds
// rounds × V × T dense int32 cells alive simultaneously — the exact
// failure mode the paper's own Table 1 rewrite attacked (79 GB of text vs
// 6 GB of binary). A Campaign instead folds each finished round into the
// combined minimum-RTT matrix and lets the round's rows go: peak memory is
// O(one run + combined) no matter how many censuses the campaign runs.
//
// The fold is exact, not approximate: per-cell minimum is commutative and
// associative and the greylist merge is a set union, so the streamed
// Combined is byte-identical to the batch Combine of the same rounds
// (TestCensusDeterminism proves it across worker counts and shard sizes).

// CampaignConfig tunes a streaming campaign.
type CampaignConfig struct {
	// Census tunes each probing round (rate, seed, workers, retries).
	Census Config
	// FoldWorkers bounds the goroutines folding a finished round into
	// the combined matrix; zero means GOMAXPROCS. The fold result does
	// not depend on the worker count.
	FoldWorkers int
	// ShardTargets is the width (in targets) of one fold work unit; the
	// combined matrix is sharded column-wise so workers never share a
	// cell. Zero picks a width that spreads one VP row over a few
	// shards. The fold result does not depend on the shard size.
	ShardTargets int
	// RetainRuns keeps every folded *Run alive (Runs) for analyses
	// that need individual rounds — the Fig. 4 funnel and the per-census
	// ablations. Off, each round's matrix is released after its fold and
	// peak memory stays bounded.
	RetainRuns bool
	// OnRun, when set, observes every finished round after it is folded
	// and before it is discarded: the hook is where cmd/census persists
	// rounds to disk in the v2 format. An error aborts the campaign.
	OnRun func(*Run) error
	// Metrics, when set, receives fold/analysis observations (rounds
	// folded, fold and analyze latency, dirty-set and greylist sizes,
	// certificate hit counters). The instrument set usually outlives the
	// campaign: daemons register one Metrics per process and thread it
	// through every campaign they build.
	Metrics *Metrics
}

func (c CampaignConfig) foldWorkers() int {
	if c.FoldWorkers > 0 {
		return c.FoldWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Campaign accumulates census rounds into a combined minimum-RTT matrix as
// they complete. The zero value is not usable; construct with NewCampaign.
// Campaign is not safe for concurrent FoldRun calls: rounds fold in
// sequence (each fold is internally parallel).
type Campaign struct {
	cfg CampaignConfig

	combined *Combined
	byID     map[int]int // vp.ID -> row slot in combined
	arena    *slabArena  // backs combined rows
	grey     *prober.Greylist
	health   CampaignHealth
	runs     []*Run

	// dirty is a bitmap over targets: bit t is set when some combined
	// min-RTT cell of target t improved or a VP newly answered it since
	// the last TakeDirty. Fold workers own disjoint column shards but
	// share bitmap words at shard boundaries, so bits merge with CAS.
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

// NewCampaign returns an empty streaming campaign.
func NewCampaign(cfg CampaignConfig) *Campaign {
	return &Campaign{
		cfg:  cfg,
		byID: make(map[int]int),
		grey: prober.NewGreylist(),
	}
}

// RoundSummary is the lightweight per-round record a streaming campaign
// keeps after the round's matrix is gone: what cmd/census logs, without
// the O(V×T) payload.
type RoundSummary struct {
	Round       uint64
	VPs         int
	Probes      int
	EchoTargets int
	GreylistLen int
	Health      RunHealth
	Duration    time.Duration
}

// FoldRun merges one finished round into the campaign: per-cell minimum
// into the combined matrix, set union into the campaign greylist, health
// into the campaign summary. The run's target list must match the rounds
// folded before it. After FoldRun returns the campaign holds no reference
// to the run's matrix unless RetainRuns is set.
func (cp *Campaign) FoldRun(run *Run) error {
	foldStart := time.Now()
	slots, err := cp.BeginRound(run.Round, run.Targets, run.VPs)
	if err != nil {
		return err
	}

	// Fold the rows in column shards pulled from an atomic counter: every
	// combined cell is written by exactly one worker, so the result is
	// identical at any worker count or shard width.
	nT := len(run.Targets)
	shard := cp.cfg.ShardTargets
	if shard <= 0 {
		shard = nT/(4*cp.cfg.foldWorkers()) + 1
	}
	shardsPerRow := (nT + shard - 1) / shard
	total := len(run.VPs) * shardsPerRow
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(cp.cfg.foldWorkers(), total) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				unit := int(next.Add(1) - 1)
				if unit >= total {
					return
				}
				vi := unit / shardsPerRow
				lo := (unit % shardsPerRow) * shard
				hi := min(lo+shard, nT)
				cp.mergeCells(cp.combined.RTTus[slots[vi]][lo:hi], run.RTTus[vi][lo:hi], lo)
			}
		}()
	}
	wg.Wait()

	cp.grey.Merge(run.Greylist)
	if err := cp.FinishRound(run.Health); err != nil {
		return err
	}
	cp.cfg.Metrics.foldObserved(time.Since(foldStart))
	if cp.cfg.RetainRuns {
		cp.runs = append(cp.runs, run)
	}
	if cp.cfg.OnRun != nil {
		if err := cp.cfg.OnRun(run); err != nil {
			return fmt.Errorf("census: campaign round %d hook: %w", run.Round, err)
		}
	}
	return nil
}

// mergeCells is the fold kernel: it min-merges src — one vantage point's
// samples for targets [lo, lo+len(src)) — into the same cells dst of its
// combined row, and marks every target whose cell improved or was newly
// answered dirty. Dirty bits accumulate in a local word and flush on
// word-boundary crossings; FoldRun's column shards can split a word
// between workers, so the flush merges with CAS.
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
				cp.orDirty(word, mask)
				word, mask = w, 0
			}
			mask |= 1 << uint(gt&31)
		}
	}
	cp.orDirty(word, mask)
}

// orDirty merges a local dirty mask into the shared bitmap word.
func (cp *Campaign) orDirty(word int, mask uint32) {
	if mask == 0 {
		return
	}
	p := &cp.dirty[word]
	for {
		old := atomic.LoadUint32(p)
		if old&mask == mask || atomic.CompareAndSwapUint32(p, old, old|mask) {
			return
		}
	}
}

// TakeDirty returns the sorted indices of every target whose combined
// row changed (a min-RTT cell improved, or a VP newly answered) since
// the previous TakeDirty, clearing the set. It must not run concurrently
// with FoldRun.
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

// ExecuteRound probes one census round and folds it into the campaign,
// returning the round's summary. Per-VP probing errors degrade rather than
// abort (quarantined VPs keep their partial rows, exactly as
// ExecuteContext); the round still folds, and the error is returned for
// surfacing. Unless RetainRuns is set the round's matrix is unreferenced
// when ExecuteRound returns.
func (cp *Campaign) ExecuteRound(ctx context.Context, w *netsim.World, vps []platform.VP, h *hitlist.Hitlist, blacklist *prober.Greylist, round uint64) (RoundSummary, error) {
	t0 := time.Now()
	run, err := ExecuteContext(ctx, w, vps, h, blacklist, round, cp.cfg.Census)
	if ctx.Err() != nil {
		return RoundSummary{Round: round}, err
	}
	sum := RoundSummary{
		Round:       round,
		VPs:         len(run.VPs),
		Probes:      run.TotalProbes(),
		EchoTargets: run.EchoTargets(),
		GreylistLen: run.Greylist.Len(),
		Health:      run.Health,
	}
	if ferr := cp.FoldRun(run); ferr != nil {
		return sum, ferr
	}
	sum.Duration = time.Since(t0)
	return sum, err
}

// Combined returns the minimum-RTT combination of every round folded so
// far, or nil before the first fold. The matrix is live: folding further
// rounds keeps updating it.
func (cp *Campaign) Combined() *Combined { return cp.combined }

// Greylist returns the union of every folded round's greylist.
func (cp *Campaign) Greylist() *prober.Greylist { return cp.grey }

// Health returns the campaign health aggregated over the folded rounds.
func (cp *Campaign) Health() CampaignHealth { return cp.health }

// Runs returns the retained rounds (RetainRuns only; nil otherwise).
func (cp *Campaign) Runs() []*Run { return cp.runs }
