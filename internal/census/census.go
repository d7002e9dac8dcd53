// Package census orchestrates Internet-wide anycast censuses: it probes
// each round in (vantage point, target span) units, each running the
// Fastping engine of package prober, folds every unit into one combined
// minimum-RTT matrix as it lands, and runs the core
// detection/enumeration/geolocation analysis over every target.
//
// This is the distributed system of Sec. 3 of the paper, with goroutines
// (or the agents of package cluster) standing in for PlanetLab nodes: the
// workflow (Fig. 1) is blacklist -> N censuses -> combination -> analysis,
// and one executor, Campaign.ExecuteRoundPipelined, runs it for every
// caller that serves or reports.
package census

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
	"anycastmap/internal/record"
)

// noSample marks the absence of an echo sample in the latency matrices.
const noSample = int32(-1)

// Config tunes census execution.
type Config struct {
	// Rate is the per-VP probing rate (probes per second); the prober
	// default of 1,000 applies when zero.
	Rate float64
	// Seed drives the per-VP target permutations.
	Seed uint64
	// Workers bounds the number of vantage points probing concurrently;
	// zero means GOMAXPROCS.
	Workers int
	// MaxAttempts is the per-VP probing attempt budget within one
	// census (first try included). A VP whose attempts are exhausted is
	// quarantined: its row keeps the samples the attempts gathered and
	// is reported in RunHealth instead of failing silently. Zero means
	// 3; 1 disables retrying.
	MaxAttempts int
	// RetryBackoff is the base delay before the first retry; each
	// further retry doubles it, capped at RetryBackoffCap. Zero means
	// 50ms; negative disables the backoff entirely (tests).
	RetryBackoff time.Duration
	// RetryBackoffCap caps the exponential backoff; zero means 2s.
	RetryBackoffCap time.Duration
}

// EffectiveWorkers resolves the configured worker count: Workers when
// positive, GOMAXPROCS otherwise.
func (c Config) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Attempts resolves the per-VP probing attempt budget: MaxAttempts when
// positive, the default of 3 otherwise.
func (c Config) Attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 3
}

// Backoff returns the capped exponential delay preceding retry attempt
// attempt (>= 1): the schedule ExecuteContext sleeps between a vantage
// point's attempts and the round engine parks a failed one for.
func (c Config) Backoff(attempt int) time.Duration {
	d, limit := c.RetryBackoff, c.RetryBackoffCap
	if d == 0 {
		d = 50 * time.Millisecond
	}
	if limit <= 0 {
		limit = 2 * time.Second
	}
	if d < 0 {
		return 0
	}
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// sleepBackoff waits out the pre-retry backoff; it returns false when the
// context is cancelled first.
func sleepBackoff(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Run is one census as a whole (vantage point x target) matrix of minimum
// observed RTTs plus the bookkeeping around it: what the ExecuteContext
// reference produces and what one SaveRun file holds.
type Run struct {
	Round   uint64
	VPs     []platform.VP
	Targets []netsim.IP
	// RTTus[v][t] is the echo RTT in µs seen by VPs[v] toward
	// Targets[t], or noSample.
	RTTus    [][]int32
	Stats    []prober.Stats
	Greylist *prober.Greylist

	// Health is the round's recovery summary: retries, recovered and
	// quarantined vantage points, partial/empty rows.
	Health RunHealth
}

// EchoTargets returns how many targets returned an echo reply to at least
// one vantage point.
func (r *Run) EchoTargets() int {
	n := 0
	for t := range r.Targets {
		for v := range r.VPs {
			if r.RTTus[v][t] >= 0 {
				n++
				break
			}
		}
	}
	return n
}

// TotalProbes returns the number of probes sent across all VPs.
func (r *Run) TotalProbes() int {
	n := 0
	for _, s := range r.Stats {
		n += s.Sent
	}
	return n
}

// ExecuteContext runs one census as one whole round: every vantage point
// probes every hitlist target at the configured rate, concurrently across
// VPs, into a full V×T matrix. It is the slow reference the determinism
// tests hold Campaign.ExecuteRoundPipelined to; nothing outside tests and
// the benchmark calls it. When ctx is cancelled, in-flight vantage points
// finish and the rest are skipped; the partial run is returned together
// with the context's error.
//
// Per-VP probing failures do not stop the other vantage points. A failed
// VP is retried up to Config.MaxAttempts times with capped exponential
// backoff; samples accumulate across attempts (the RTT draws of a round
// are attempt-invariant, so attempts agree wherever they overlap). A VP
// whose budget is exhausted is quarantined: its partial row is kept and
// marked in Run.Health, and its final error is joined into the returned
// error.
func ExecuteContext(ctx context.Context, w *netsim.World, vps []platform.VP, h *hitlist.Hitlist, blacklist *prober.Greylist, round uint64, cfg Config) (*Run, error) {
	targets := h.Targets()
	targetIdx := make(map[netsim.IP]int, len(targets))
	for i, ip := range targets {
		targetIdx[ip] = i
	}

	run := &Run{
		Round:    round,
		VPs:      vps,
		Targets:  targets,
		RTTus:    make([][]int32, len(vps)),
		Stats:    make([]prober.Stats, len(vps)),
		Greylist: prober.NewGreylist(),
	}

	sem := make(chan struct{}, cfg.EffectiveWorkers())
	var wg sync.WaitGroup
	var greyMu sync.Mutex
	vpErrs := make([]error, len(vps))
	perVP := make([]VPHealth, len(vps))
	rowSamples := make([]int, len(vps))
	for vi := range vps {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(vi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				// Leave the row empty: this VP never ran.
				run.RTTus[vi] = emptyRow(len(targets))
				run.Stats[vi] = prober.Stats{VP: vps[vi]}
				perVP[vi] = VPHealth{VP: vps[vi].Name, Skipped: true}
				return
			}

			row := emptyRow(len(targets))
			samples := 0
			sink := func(s record.Sample) {
				if s.Kind != netsim.ReplyEcho {
					return
				}
				if ti, ok := targetIdx[s.Target]; ok {
					us := s.RTT.Microseconds()
					if us > 1<<30 {
						us = 1 << 30
					}
					if row[ti] == noSample {
						samples++
					}
					row[ti] = int32(us)
				}
			}

			vh := VPHealth{VP: vps[vi].Name}
			var stats prober.Stats
			var err error
			for attempt := 0; attempt < cfg.Attempts(); attempt++ {
				if attempt > 0 && !sleepBackoff(ctx, cfg.Backoff(attempt)) {
					break
				}
				vh.Attempts++
				var grey *prober.Greylist
				stats, grey, err = prober.Run(w, vps[vi], targets, blacklist,
					prober.Config{Rate: cfg.Rate, Round: round, Seed: cfg.Seed, Attempt: attempt},
					sink)
				greyMu.Lock()
				run.Greylist.Merge(grey)
				greyMu.Unlock()
				if err == nil {
					vh.Recovered = attempt > 0
					break
				}
				if ctx.Err() != nil {
					break
				}
			}
			if err != nil {
				vh.Err = err.Error()
				if ctx.Err() == nil {
					// Retry budget exhausted on a live campaign: the
					// VP is quarantined, its partial row kept.
					vh.Quarantined = true
					vpErrs[vi] = fmt.Errorf("census: VP %s quarantined after %d attempts: %w",
						vps[vi].Name, vh.Attempts, err)
				} else {
					vpErrs[vi] = fmt.Errorf("census: VP %s: %w", vps[vi].Name, err)
				}
			}
			run.RTTus[vi] = row
			run.Stats[vi] = stats
			perVP[vi] = vh
			rowSamples[vi] = samples
		}(vi)
	}
	wg.Wait()
	// VPs never started because of cancellation still need empty rows.
	for vi := range vps {
		if run.RTTus[vi] == nil {
			run.RTTus[vi] = emptyRow(len(targets))
			run.Stats[vi] = prober.Stats{VP: vps[vi]}
			perVP[vi] = VPHealth{VP: vps[vi].Name, Skipped: true}
		}
	}
	run.Health = buildHealth(round, perVP, rowSamples)
	return run, errors.Join(append(vpErrs, ctx.Err())...)
}

// buildHealth folds the per-VP records into the round summary.
func buildHealth(round uint64, perVP []VPHealth, rowSamples []int) RunHealth {
	h := RunHealth{Round: round, VPs: len(perVP), PerVP: perVP}
	for vi, vh := range perVP {
		if vh.Attempts > 1 {
			h.Retries += vh.Attempts - 1
		}
		switch {
		case vh.Recovered:
			h.Recovered++
			h.Completed++
		case vh.Quarantined:
			h.Quarantined = append(h.Quarantined, vh.VP)
			if rowSamples[vi] > 0 {
				h.PartialRows++
			}
		case vh.Err == "" && !vh.Skipped:
			h.Completed++
		}
		if rowSamples[vi] == 0 {
			h.EmptyRows++
		}
	}
	return h
}

// emptyRow returns an all-noSample row.
func emptyRow(n int) []int32 {
	row := make([]int32, n)
	fillNoSample(row)
	return row
}

// Combined merges several censuses: the vantage-point union (keyed by VP
// identity) with, per (VP, target), the minimum RTT over all censuses the
// VP took part in. Minimum-combining filters queueing noise and approaches
// the propagation delay, which both sharpens geolocation and increases
// detection recall (Sec. 4.1: the combination finds ~200 more anycast /24s
// than an average individual census).
type Combined struct {
	VPs     []platform.VP
	Targets []netsim.IP
	RTTus   [][]int32
	Rounds  int
}

// Combine merges census runs. All runs must share the same target list.
// It is the batch reference Campaign's fold is held to; cmd/igreedy -runs
// min-combines saved files with it.
func Combine(runs ...*Run) (*Combined, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("census: nothing to combine")
	}
	targets := runs[0].Targets
	for ri, r := range runs[1:] {
		if len(r.Targets) != len(targets) {
			return nil, fmt.Errorf("census: runs have different target lists (%d vs %d)", len(r.Targets), len(targets))
		}
		// Equal lengths are not enough: two censuses over different
		// hitlists of the same size would min-combine RTTs of unrelated
		// targets into garbage. Compare contents and point at the first
		// disagreement.
		for ti, tgt := range r.Targets {
			if tgt != targets[ti] {
				return nil, fmt.Errorf("census: run %d target list diverges at index %d (%v vs %v)",
					ri+1, ti, tgt, targets[ti])
			}
		}
	}

	// Group each VP's rows across runs (first-seen order), then min-merge
	// the rows of different VPs in parallel: the merges are independent,
	// and the grouping fixes both the VP order and the per-VP run order,
	// so the result is identical at any worker count.
	type rowRef struct{ run, vi int }
	byID := make(map[int]int, len(runs[0].VPs)) // vp.ID -> slot
	var vps []platform.VP
	var sources [][]rowRef
	for ri, r := range runs {
		for vi, vp := range r.VPs {
			si, ok := byID[vp.ID]
			if !ok {
				si = len(vps)
				byID[vp.ID] = si
				vps = append(vps, vp)
				sources = append(sources, nil)
			}
			sources[si] = append(sources[si], rowRef{run: ri, vi: vi})
		}
	}

	c := &Combined{Targets: targets, Rounds: len(runs), VPs: vps, RTTus: make([][]int32, len(vps))}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(vps) {
		workers = len(vps)
	}
	var wg sync.WaitGroup
	chunk := (len(vps) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(vps) {
			hi = len(vps)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for si := lo; si < hi; si++ {
				refs := sources[si]
				row := make([]int32, len(targets))
				copy(row, runs[refs[0].run].RTTus[refs[0].vi])
				for _, ref := range refs[1:] {
					src := runs[ref.run].RTTus[ref.vi]
					for t, v := range src {
						if v < 0 {
							continue
						}
						if row[t] < 0 || v < row[t] {
							row[t] = v
						}
					}
				}
				c.RTTus[si] = row
			}
		}(lo, hi)
	}
	wg.Wait()
	return c, nil
}

// Measurements assembles the core.Measurement slice for one target index.
func (c *Combined) Measurements(t int) []core.Measurement {
	ms, _ := c.AppendMeasurements(t, nil, nil)
	return ms
}

// AppendMeasurements appends target t's measurements to ms and the index
// of each sample's vantage point (into c.VPs) to vpIdx, returning both.
// Passing ms[:0]/vpIdx[:0] lets the analysis loop reuse its buffers
// instead of allocating per target.
func (c *Combined) AppendMeasurements(t int, ms []core.Measurement, vpIdx []int) ([]core.Measurement, []int) {
	for v := range c.VPs {
		us := c.RTTus[v][t]
		if us < 0 {
			continue
		}
		ms = append(ms, core.Measurement{
			VP:    c.VPs[v].Name,
			VPLoc: c.VPs[v].Loc,
			RTT:   time.Duration(us) * time.Microsecond,
		})
		vpIdx = append(vpIdx, v)
	}
	return ms, vpIdx
}

// appendRadii is AppendMeasurements for the detection kernel, which needs
// no names and no locations: target t's disk radii in km and the index of
// each one's vantage point.
func (c *Combined) appendRadii(t int, radii []float64, vpIdx []int) ([]float64, []int) {
	for v, row := range c.RTTus {
		if us := row[t]; us >= 0 {
			radii = append(radii, geo.DiskRadiusKm(time.Duration(us)*time.Microsecond))
			vpIdx = append(vpIdx, v)
		}
	}
	return radii, vpIdx
}

// Outcome is the analysis result for one anycast target.
type Outcome struct {
	Target netsim.IP
	Result core.Result
}

// Prefix returns the /24 of the target.
func (o Outcome) Prefix() netsim.Prefix24 { return o.Target.Prefix() }

// AnalyzeAll runs detection over every target with at least minSamples
// echo samples and the full enumeration/geolocation pipeline over the
// detected ones. It returns only the anycast outcomes, sorted by target.
// Analysis is parallelized over targets; workers <= 0 means GOMAXPROCS.
//
// Scheduling is work-stealing, not static chunks: unicast rejects cost
// a few microseconds while anycast targets pay the full enumeration, so
// evenly sized chunks leave most workers idle behind the one that drew
// the anycast-dense range. The shared engine in analyzer.go pulls small
// batches off an atomic cursor instead; the outcome does not depend on
// the worker count.
func AnalyzeAll(db *cities.DB, c *Combined, opt core.Options, minSamples, workers int) []Outcome {
	outcomes, _ := analyzeAll(db, c, opt, minSamples, workers)
	return outcomes
}

// analyzeAll is AnalyzeAll with the engine's counters.
func analyzeAll(db *cities.DB, c *Combined, opt core.Options, minSamples, workers int) ([]Outcome, AnalyzerStats) {
	a := NewAnalyzer(db, AnalyzerConfig{Options: opt, MinSamples: minSamples, Workers: workers})
	a.bind(c)
	a.run(nil, true)
	return a.Outcomes(), a.stats
}
