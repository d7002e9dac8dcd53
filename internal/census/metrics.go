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
	// AnalyzeSeconds is the latency of one Campaign.Analyze.
	AnalyzeSeconds *obs.Histogram
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
		AnalyzeSeconds: r.Histogram("anycastmap_census_analyze_seconds", "Latency of one analysis of a campaign's combined matrix.", obs.DefBuckets),
		GreylistSize:   r.Gauge("anycastmap_census_greylist_size", "Campaign greylist size after the most recent fold."),
		Analyses:       r.Counter("anycastmap_census_analyses_total", "Per-target analyses run by Campaign.Analyze."),
		WitnessDecided: r.Counter("anycastmap_census_witness_decided_total", "Detection passes decided in O(n): every disk held the smallest disk's center."),
		SplitScanned:   r.Counter("anycastmap_census_split_scanned_total", "Detection passes that tested the disks not holding that center against all."),
		PairTests:      r.Counter("anycastmap_census_pair_tests_total", "Disk-pair overlap tests executed by detection passes."),
	}
}

// analyzeObserved records one Campaign.Analyze: its latency and counters.
func (m *Metrics) analyzeObserved(d time.Duration, st AnalyzerStats) {
	if m == nil {
		return
	}
	m.AnalyzeSeconds.Observe(d.Seconds())
	m.Analyses.Add(uint64(st.Analyzed))
	m.WitnessDecided.Add(uint64(st.WitnessDecided))
	m.SplitScanned.Add(uint64(st.SplitScanned))
	m.PairTests.Add(uint64(st.PairTests))
}
