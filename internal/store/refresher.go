package store

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"anycastmap/internal/analysis"
	"anycastmap/internal/asdb"
	"anycastmap/internal/bgp"
	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// Source builds fresh snapshots for a Refresher. Build may return both a
// snapshot and an error: a partially-failed campaign (some vantage points
// erroring) still yields publishable, if thinner, results.
type Source interface {
	Build(ctx context.Context) (*Snapshot, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(ctx context.Context) (*Snapshot, error)

// Build implements Source.
func (f SourceFunc) Build(ctx context.Context) (*Snapshot, error) { return f(ctx) }

// Refresher periodically rebuilds the census index in the background and
// hot-swaps it into a Store. Readers keep answering from the previous
// snapshot for the whole (potentially minutes-long) rebuild; the swap
// itself is one atomic pointer store. A panicking build is recovered, the
// old snapshot stays live, and the loop keeps its schedule.
type Refresher struct {
	store    *Store
	src      Source
	interval time.Duration

	// Log, when set, receives one line per refresh outcome.
	Log func(format string, args ...any)

	// SnapshotPath, when set, persists every built snapshot to this file
	// (atomic temp+rename) and republishes it as an mmap-backed snapshot:
	// the daemon then serves from the page cache with no resident heap
	// proportional to targets, and the file doubles as a warm-boot image.
	// A persist or remap failure is counted and logged but never blocks the
	// refresh — the in-heap snapshot publishes instead.
	SnapshotPath string

	// InitialBackoff is the first retry delay when the startup refresh
	// fails; zero means 100ms. Until the first snapshot publishes, Run
	// retries on this capped-exponential schedule instead of sitting dark
	// for a full interval.
	InitialBackoff time.Duration
	// MaxInitialBackoff caps the startup retry delay; zero means 15s
	// (never more than the refresh interval).
	MaxInitialBackoff time.Duration

	completed      atomic.Uint64
	degraded       atomic.Uint64
	degradedBuilds atomic.Uint64
	failed         atomic.Uint64
	panics         atomic.Uint64
	persisted      atomic.Uint64
	persistErrs    atomic.Uint64
	lastNanos      atomic.Int64
}

// NewRefresher wires a refresher; interval <= 0 defaults to 15 minutes.
func NewRefresher(st *Store, src Source, interval time.Duration) *Refresher {
	if interval <= 0 {
		interval = 15 * time.Minute
	}
	return &Refresher{store: st, src: src, interval: interval}
}

// Run refreshes until ctx is cancelled. If the store has no snapshot yet,
// the first refresh starts immediately — and, should it fail, retries on
// a capped exponential backoff (InitialBackoff doubling up to
// MaxInitialBackoff) until a snapshot publishes. Without the retry a
// transient source error at boot left the daemon answering 503 for an
// entire interval. Once a snapshot is live, one refresh runs per
// interval. Run blocks; start it in a goroutine.
func (r *Refresher) Run(ctx context.Context) {
	backoff := r.InitialBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := r.MaxInitialBackoff
	if maxBackoff <= 0 {
		maxBackoff = 15 * time.Second
	}
	if maxBackoff > r.interval {
		maxBackoff = r.interval
	}
	for !r.store.Ready() {
		if r.RefreshOnce(ctx) {
			break
		}
		if ctx.Err() != nil {
			return
		}
		r.logf("store: no snapshot yet, retrying initial refresh in %v", backoff)
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.RefreshOnce(ctx)
		}
	}
}

// RefreshOnce runs one build-and-swap cycle. It never lets a Source panic
// escape: the panic is counted, logged, and the current snapshot stays
// published. It reports whether a new snapshot was published.
func (r *Refresher) RefreshOnce(ctx context.Context) (published bool) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			r.panics.Add(1)
			r.failed.Add(1)
			r.logf("store: refresh panicked (old snapshot stays live): %v", p)
		}
		r.lastNanos.Store(time.Since(start).Nanoseconds())
	}()

	snap, err := r.src.Build(ctx)
	if snap == nil {
		r.failed.Add(1)
		if err != nil && ctx.Err() == nil {
			r.logf("store: refresh failed: %v", err)
		}
		return false
	}
	// Two distinct degradation signals, counted separately: the build
	// returning an error alongside a usable snapshot (degradedBuilds), and
	// the campaign itself quarantining a vantage point (degraded). The log
	// line used to fire for the former while only the latter was counted,
	// so /v1/stats drifted from the logs.
	if err != nil {
		r.degradedBuilds.Add(1)
		r.logf("store: refresh degraded (publishing partial snapshot): %v", err)
	}
	if snap.Degraded() {
		r.degraded.Add(1)
		r.logf("store: campaign degraded: %s", snap.Health())
	}
	if r.SnapshotPath != "" {
		if mapped, perr := r.persist(snap); perr != nil {
			r.persistErrs.Add(1)
			r.logf("store: snapshot persist failed (serving from heap): %v", perr)
		} else {
			r.persisted.Add(1)
			snap = mapped
		}
	}
	v := r.store.Publish(snap)
	r.completed.Add(1)
	backing := "heap"
	if snap.Mapped() {
		backing = "mmap"
	}
	r.logf("store: published snapshot v%d: %d anycast /24s, %d ASes, %d replicas, %s-backed (%v)",
		v, snap.Len(), snap.ASes(), snap.TotalReplicas(), backing, time.Since(start).Round(time.Millisecond))
	return true
}

// persist writes the snapshot to SnapshotPath and reopens it as a
// file-backed snapshot. The write is validated by the reopen itself
// (header, CRC, index monotonicity) before anything reaches the store.
func (r *Refresher) persist(snap *Snapshot) (*Snapshot, error) {
	if err := SaveSnapshotFile(r.SnapshotPath, snap); err != nil {
		return nil, err
	}
	return OpenSnapshotFile(r.SnapshotPath)
}

func (r *Refresher) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
	}
}

// RefresherStats is a point-in-time copy of the refresh counters.
type RefresherStats struct {
	Completed uint64 `json:"completed"`
	// DegradedPublishes counts published snapshots whose campaign
	// quarantined at least one vantage point.
	DegradedPublishes uint64 `json:"degraded_publishes"`
	// DegradedBuilds counts published snapshots whose build also returned
	// an error (some vantage points failed outright).
	DegradedBuilds uint64 `json:"degraded_builds"`
	Failed         uint64 `json:"failed"`
	Panics         uint64 `json:"panics"`
	// Persisted counts snapshots written to SnapshotPath and republished
	// mmap-backed; PersistErrors counts persist attempts that fell back to
	// publishing the in-heap snapshot.
	Persisted     uint64        `json:"persisted,omitempty"`
	PersistErrors uint64        `json:"persist_errors,omitempty"`
	LastRefresh   time.Duration `json:"last_refresh_ns"`
	Interval      time.Duration `json:"interval_ns"`
}

// Stats samples the counters.
func (r *Refresher) Stats() RefresherStats {
	return RefresherStats{
		Completed:         r.completed.Load(),
		DegradedPublishes: r.degraded.Load(),
		DegradedBuilds:    r.degradedBuilds.Load(),
		Failed:            r.failed.Load(),
		Panics:            r.panics.Load(),
		Persisted:         r.persisted.Load(),
		PersistErrors:     r.persistErrs.Load(),
		LastRefresh:       time.Duration(r.lastNanos.Load()),
		Interval:          r.interval,
	}
}

// CensusSource builds snapshots by running real census rounds against the
// world — span-pipelined probing folded into the minimum-RTT combination,
// then the detection/enumeration/geolocation analysis — exactly the
// workflow of the paper's Fig. 1, repeated forever as the map's freshness
// loop.
type CensusSource struct {
	World     *netsim.World
	Cities    *cities.DB
	Platform  *platform.Platform
	Table     *bgp.Table
	Registry  *asdb.Registry
	Hitlist   *hitlist.Hitlist
	Blacklist *prober.Greylist

	// Rounds is the number of censuses combined per snapshot (the paper
	// ran 4); zero means 2 to keep refreshes cheap.
	Rounds int
	// VPsPerRound is the vantage-point sample size per census; zero
	// means 261 (the paper's first-census PlanetLab availability).
	VPsPerRound int
	// Census tunes each round (rate, workers); Seed decorrelates VP
	// sampling across rounds.
	Census census.Config
	Seed   uint64
	// MinSamples gates analysis like census.AnalyzeAll (minimum 2).
	MinSamples int
	// SpanTargets is the probe/fold unit width in targets; zero means
	// census.DefaultSpanTargets (16,384).
	SpanTargets int
	// Metrics, when set, instruments every campaign this source builds
	// (rounds folded, analysis latency and counters). The instruments outlive
	// individual campaigns, so counters accumulate across refreshes.
	Metrics *census.Metrics

	round atomic.Uint64
}

func (cs *CensusSource) rounds() int {
	if cs.Rounds > 0 {
		return cs.Rounds
	}
	return 2
}

func (cs *CensusSource) vpsPerRound() int {
	if cs.VPsPerRound > 0 {
		return cs.VPsPerRound
	}
	return 261
}

// SetRound moves the census round counter so rounds stay monotone when an
// earlier campaign (e.g. the startup one) already consumed round numbers.
func (cs *CensusSource) SetRound(n uint64) { cs.round.Store(n) }

// Build implements Source: it advances the global census round counter,
// probes, folds, analyzes, and indexes. Rounds stream through a
// census.Campaign — probe spans fold into the combined matrix as they
// land, so a refresh holds the combination plus a span per worker no
// matter how many rounds a snapshot aggregates. Per-VP probing errors do
// not abort the campaign; they are returned alongside the snapshot so the
// caller can publish the partial result and still surface the problem.
func (cs *CensusSource) Build(ctx context.Context) (*Snapshot, error) {
	cfg := cs.Census
	cfg.Seed = cs.Seed
	cp := census.NewCampaign(census.CampaignConfig{Census: cfg, Metrics: cs.Metrics})
	pc := census.PipelineConfig{SpanTargets: cs.SpanTargets}
	var degraded error
	var last uint64
	for i := 0; i < cs.rounds(); i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		last = cs.round.Add(1)
		vps := cs.Platform.Sample(cs.vpsPerRound(), cs.Seed+last)
		if _, err := cp.ExecuteRoundPipelined(ctx, cs.World, vps, cs.Hitlist, cs.Blacklist, last, pc); err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			degraded = err
		}
	}
	if cp.Combined() == nil {
		return nil, fmt.Errorf("store: no census rounds ran")
	}
	outcomes, _ := cp.Analyze(cs.Cities, core.Options{}, cs.MinSamples, 0)
	findings := analysis.Attribute(outcomes, cs.Table)
	snap := NewSnapshot(findings, cs.Registry, last, cs.rounds())
	snap.SetHealth(cp.Health())
	return snap, degraded
}
