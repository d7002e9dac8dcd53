package census

import (
	"time"

	"anycastmap/internal/obs"
)

// Metrics is the campaign/analyzer instrument set, registered once per
// process and shared by every Campaign a daemon builds (a refresher
// builds a fresh Campaign per snapshot; the counters must outlive each
// one to be a usable time series). All observation helpers are nil-safe
// so campaigns without metrics pay a single pointer test.
type Metrics struct {
	// RoundsFolded counts census rounds folded into a combined matrix,
	// counted when the round closes (FinishRound).
	RoundsFolded *obs.Counter
	// AnalyzeSeconds is the latency of one analysis pass — an
	// incremental AnalyzeDirty or a batch AnalyzeAll.
	AnalyzeSeconds *obs.Histogram
	// DirtyTargets is the dirty-set size of the most recent
	// incremental analysis.
	DirtyTargets *obs.Gauge
	// GreylistSize is the campaign greylist size after the most recent
	// fold.
	GreylistSize *obs.Gauge
	// Analyses counts per-target analyses, mirroring AnalyzerStats;
	// WitnessDecided + SplitScanned == Analyses splits them by how the
	// split scan ended, and PairTests is the disk-pair tests it executed.
	Analyses       *obs.Counter
	WitnessDecided *obs.Counter
	SplitScanned   *obs.Counter
	PairTests      *obs.Counter
}

// NewMetrics registers the census series on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		RoundsFolded:   r.Counter("anycastmap_census_rounds_folded_total", "Census rounds folded into the combined min-RTT matrix."),
		AnalyzeSeconds: r.Histogram("anycastmap_census_analyze_seconds", "Latency of one analysis pass (incremental dirty-set or batch).", obs.DefBuckets),
		DirtyTargets:   r.Gauge("anycastmap_census_dirty_targets", "Dirty-set size of the most recent incremental analysis."),
		GreylistSize:   r.Gauge("anycastmap_census_greylist_size", "Campaign greylist size after the most recent fold."),
		Analyses:       r.Counter("anycastmap_census_analyses_total", "Per-target analyses run by the incremental engine."),
		WitnessDecided: r.Counter("anycastmap_census_witness_decided_total", "Detection passes decided in O(n): every disk held the smallest disk's center."),
		SplitScanned:   r.Counter("anycastmap_census_split_scanned_total", "Detection passes that tested the disks not holding that center against all."),
		PairTests:      r.Counter("anycastmap_census_pair_tests_total", "Disk-pair overlap tests executed by detection passes."),
	}
}

// analyzeObserved records one incremental analysis pass; before/after
// are the analyzer's cumulative stats around it.
func (m *Metrics) analyzeObserved(d time.Duration, dirty int, before, after AnalyzerStats) {
	if m == nil {
		return
	}
	m.AnalyzeSeconds.Observe(d.Seconds())
	m.DirtyTargets.Set(float64(dirty))
	m.Analyses.Add(uint64(after.Analyzed - before.Analyzed))
	m.WitnessDecided.Add(uint64(after.WitnessDecided - before.WitnessDecided))
	m.SplitScanned.Add(uint64(after.SplitScanned - before.SplitScanned))
	m.PairTests.Add(uint64(after.PairTests - before.PairTests))
}

// ObserveAnalysis records the wall time of a batch analysis (an
// AnalyzeAll outside the incremental engine, as the store's census
// source runs). Nil-safe.
func (m *Metrics) ObserveAnalysis(d time.Duration) {
	if m == nil {
		return
	}
	m.AnalyzeSeconds.Observe(d.Seconds())
}
