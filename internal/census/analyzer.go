package census

import (
	"runtime"
	"sync"
	"sync/atomic"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// This file is the analysis engine behind AnalyzeAll and Campaign.Analyze.
// Every target of the combined matrix is decided by the split scan of
// internal/core/scan.go. Detection reads radii and vantage-point slots
// straight off the combined matrix and rows of one VP-pair distance
// matrix; measurements and disks are built only for a target proven
// anycast.

// AnalyzerConfig tunes an Analyzer.
type AnalyzerConfig struct {
	// Options tunes the per-target core analysis.
	Options core.Options
	// MinSamples is the vantage-point coverage below which a target is
	// not analyzed; values below 2 mean 2 (matching AnalyzeAll).
	MinSamples int
	// Workers bounds the analysis goroutines; zero means GOMAXPROCS.
	Workers int
}

func (c AnalyzerConfig) minSamples() int {
	if c.MinSamples < 2 {
		return 2
	}
	return c.MinSamples
}

func (c AnalyzerConfig) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// AnalyzerStats counts what the engine did, for cmd/census's log line, the
// census metrics and benchmark blocks.
type AnalyzerStats struct {
	// Analyzed is the total number of target analyses:
	// WitnessDecided + SplitScanned. A WitnessDecided target's smallest
	// disk had its center deep inside every disk, one O(n) pass; a
	// SplitScanned one had the disks that did not hold it tested against
	// all. PairTests totals the disk-pair tests both executed; a pair scan
	// needs n(n-1)/2 to call a target unicast.
	Analyzed       int64
	WitnessDecided int64
	SplitScanned   int64
	PairTests      int64
	// PairsMeasured counts the vantage-point pair distances (haversines)
	// this analyzer had to compute for its distance matrix: a pair some
	// earlier analysis of the process already read costs none.
	PairsMeasured int64
	// CertHits is always zero: detection certificates are gone. It stays
	// only because bench/ reads it for census.cert_hit_ratio.
	CertHits int64
}

// Analyzer holds what one analysis reuses across targets: the spatial
// city index, the VP-pair distance matrix and the per-target results. The
// zero value is not usable; construct with NewAnalyzer. An Analyzer is
// not safe for concurrent Update calls.
type Analyzer struct {
	db  *cities.DB
	cfg AnalyzerConfig

	idx    *cities.Index
	c      *Combined
	vpLocs []geo.Coord // the vantage points' coordinates, by slot
	vpDist []float64   // their pairwise distances, row-major

	results []*core.Result

	stats AnalyzerStats
}

// NewAnalyzer returns an empty analyzer over the city database.
func NewAnalyzer(db *cities.DB, cfg AnalyzerConfig) *Analyzer {
	return &Analyzer{db: db, cfg: cfg}
}

// Stats returns the cumulative engine counters.
func (a *Analyzer) Stats() AnalyzerStats { return a.stats }

// Update re-analyzes the listed targets (unique indices into c.Targets)
// against c and keeps every other target's last result; the caller must
// list every target whose measurement set changed since the last call.
// It stays only because the bench/ analyzer microloop calls it for
// census.analyzer_update_s, as CertHits stays for census.cert_hit_ratio;
// everything else analyzes through AnalyzeAll or Campaign.Analyze.
func (a *Analyzer) Update(c *Combined, list []int) {
	a.bind(c)
	a.run(list, false)
}

// Outcomes returns the current analysis outcome of every anycast target,
// in target order — exactly what AnalyzeAll over the same combined
// matrix returns.
func (a *Analyzer) Outcomes() []Outcome {
	var out []Outcome
	for t, r := range a.results {
		if r != nil {
			out = append(out, Outcome{Target: a.c.Targets[t], Result: *r})
		}
	}
	return out
}

// bind points the analyzer at the (possibly grown) combined matrix,
// extending the per-target state and the VP distance matrix as needed.
func (a *Analyzer) bind(c *Combined) {
	a.c = c
	if a.idx == nil {
		// One spatial index shared by every worker and every round:
		// classification is the inner loop of the analysis.
		a.idx = cities.NewIndex(a.db, 10)
	}
	if len(c.Targets) > len(a.results) {
		results := make([]*core.Result, len(c.Targets))
		copy(results, a.results)
		a.results = results
	}
	if !a.sameVPs(c.VPs) {
		// Every disk the detector sees is centered at a vantage point, so
		// one VP-pair distance matrix replaces the per-target haversines
		// that dominate detection. It is resolved from the coordinates on
		// every bind — a vantage point appended, or a different one in an
		// old slot, rebuilds it — and filled from the process-wide table
		// (vpdist.go): the matrix is row-major with stride nVP, so it is
		// copied out whole, but only the pairs no analysis of this process
		// has held together cost a haversine.
		a.vpLocs = a.vpLocs[:0]
		for _, vp := range c.VPs {
			a.vpLocs = append(a.vpLocs, vp.Loc)
		}
		a.vpDist = make([]float64, len(c.VPs)*len(c.VPs))
		a.stats.PairsMeasured += vpDistances.fill(a.vpDist, a.vpLocs)
	}
}

// sameVPs reports whether vps sit, slot for slot, at the coordinates the
// distance matrix was built for.
func (a *Analyzer) sameVPs(vps []platform.VP) bool {
	if len(vps) != len(a.vpLocs) {
		return false
	}
	for i, vp := range vps {
		if keyOf(vp.Loc) != keyOf(a.vpLocs[i]) {
			return false
		}
	}
	return true
}

// run analyzes the listed targets (every target when all is set; list is
// then ignored) with a work-stealing worker pool: anycast targets cost
// orders of magnitude more than unicast rejects, so workers
// pull small batches from a shared atomic cursor instead of owning
// static chunks, at every worker count.
func (a *Analyzer) run(list []int, all bool) {
	n := len(list)
	if all {
		list, n = nil, len(a.c.Targets)
	}
	if n == 0 {
		return
	}
	workers := a.cfg.workers()
	if workers > n {
		workers = n
	}
	// Batches big enough to keep cursor traffic negligible, small enough
	// that a straggler batch holds at most ~1/64 of one worker's share.
	grain := n / (workers * 64)
	if grain < 1 {
		grain = 1
	} else if grain > 128 {
		grain = 128
	}
	var cursor atomic.Int64
	var mu sync.Mutex // guards a.stats as workers finish
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := a.newScan()
			ms := make([]core.Measurement, 0, len(a.vpLocs))
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					break
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for k := lo; k < hi; k++ {
					t := k
					if list != nil {
						t = list[k]
					}
					if a.detect(s, t) {
						// Only a proven-anycast target pays for
						// measurements: names, locations, disks.
						ms, s.Slots = a.c.AppendMeasurements(t, ms[:0], s.Slots[:0])
						r := s.Enumerate(a.idx, ms, a.cfg.Options)
						a.results[t] = &r
					} else {
						a.results[t] = nil
					}
				}
			}
			mu.Lock()
			a.stats.Analyzed += s.Witness + s.Split
			a.stats.WitnessDecided += s.Witness
			a.stats.SplitScanned += s.Split
			a.stats.PairTests += s.PairTests
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// newScan returns one worker's detection kernel over the VP distance
// matrix: every disk of a target is centered at a vantage point, so disk
// i's distances are the matrix row of its VP slot.
func (a *Analyzer) newScan() *core.Scan {
	nVP := len(a.vpLocs)
	return &core.Scan{Row: func(slot int) []float64 { return a.vpDist[slot*nVP : (slot+1)*nVP] }}
}

// detect gathers target t's radii and VP slots straight from the combined
// matrix into s and decides it by the split scan. A target under the
// sample floor is not analyzed and reads unicast.
func (a *Analyzer) detect(s *core.Scan, t int) bool {
	s.Radii, s.Slots = a.c.appendRadii(t, s.Radii[:0], s.Slots[:0])
	return len(s.Radii) >= a.cfg.minSamples() && s.Detect()
}
