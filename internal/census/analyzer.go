package census

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// This file is the incremental analysis engine. The paper re-analyzes
// every responsive /24 per monthly census (Sec. 3, Fig. 4) yet finds the
// anycast set largely stable month to month (Sec. 3.2) — so re-running
// detection over every target after every round mostly re-derives last
// round's answers. An Analyzer instead keeps, per target, the last result
// and the detection certificate that decided it
// (internal/core/certificate.go): after a round folds, only the targets
// whose combined min-RTT row changed (the campaign's dirty set) are
// re-analyzed, and for those the cached certificate is revalidated before
// the split scan runs. Detection reads radii and vantage-point slots
// straight off the combined matrix and rows of one VP-pair distance
// matrix; measurements and disks are built only for a target proven
// anycast. Outcomes are bit-identical to batch AnalyzeAll at every round —
// TestCensusDeterminism pins it.

// AnalyzerConfig tunes an incremental Analyzer.
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

// certEntry caches one target's detection certificate addressed by
// vantage-point slot (row index in Combined.VPs), not measurement
// position: a VP newly answering a target inserts a measurement
// mid-sequence, shifting positions, while slots are stable for the life
// of a campaign.
type certEntry struct {
	kind core.CertKind
	a, b int32
}

// AnalyzerStats counts what the incremental engine did, for surfacing in
// heap reports and benchmark blocks.
type AnalyzerStats struct {
	// Updates is the number of Update calls (analysis rounds).
	Updates int
	// Analyzed is the total number of target analyses across all updates.
	Analyzed int64
	// CertHits counts analyses decided by revalidating the cached
	// certificate, skipping the full detection pass.
	CertHits int64
	// FullScans counts analyses that paid the full detection pass (no
	// cached certificate, or revalidation was inconclusive). Each is
	// either WitnessDecided — the smallest disk's center lay deep inside
	// every disk, one O(n) pass — or SplitScanned: the disks that did not
	// hold it were tested against all. PairTests totals the disk-pair
	// tests both executed; a pair scan needs n(n-1)/2 to call a target
	// unicast.
	FullScans      int64
	WitnessDecided int64
	SplitScanned   int64
	PairTests      int64
	// PairsMeasured counts the vantage-point pair distances (haversines)
	// this analyzer had to compute for its distance matrix: a pair some
	// earlier analysis of the process already read costs none.
	PairsMeasured int64
	// LastDirty is the dirty-set size of the most recent update.
	LastDirty int
}

// CertHitRate is the fraction of analyses decided by a cached
// certificate.
func (s AnalyzerStats) CertHitRate() float64 {
	if s.Analyzed == 0 {
		return 0
	}
	return float64(s.CertHits) / float64(s.Analyzed)
}

// Analyzer re-analyzes a streaming campaign's combined matrix
// incrementally: Update(c, dirty) refreshes only the dirty targets,
// reusing the spatial city index, the VP-pair distance matrix, cached
// per-target results and detection certificates across rounds. The zero
// value is not usable; construct with NewAnalyzer. An Analyzer is not
// safe for concurrent Update calls.
//
// The contract with the caller: across Update calls the Combined must
// keep the same target list, and every target whose measurement set
// changed in any way — a new sample, a vantage point appended, a slot
// now held by a vantage point somewhere else — must appear in dirty.
// Campaign.AnalyzeDirty maintains exactly this (its campaigns only ever
// append vantage points). The distance matrix itself follows the
// coordinates on every Update, whatever the caller does.
type Analyzer struct {
	db  *cities.DB
	cfg AnalyzerConfig

	idx    *cities.Index
	c      *Combined
	vpLocs []geo.Coord // the vantage points' coordinates, by slot
	vpDist []float64   // their pairwise distances, row-major

	results []*core.Result
	certs   []certEntry

	stats AnalyzerStats
}

// NewAnalyzer returns an empty incremental analyzer over the city
// database.
func NewAnalyzer(db *cities.DB, cfg AnalyzerConfig) *Analyzer {
	return &Analyzer{db: db, cfg: cfg}
}

// Stats returns the cumulative engine counters.
func (a *Analyzer) Stats() AnalyzerStats { return a.stats }

// Update re-analyzes the dirty targets (unique indices into c.Targets)
// against the current combined matrix. The first call must list every
// target that has samples (a campaign's first fold dirties exactly
// those); an empty or nil dirty set re-analyzes nothing.
func (a *Analyzer) Update(c *Combined, dirty []int) {
	a.bind(c)
	a.run(dirty, false, true)
	a.stats.Updates++
	a.stats.LastDirty = len(dirty)
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
		certs := make([]certEntry, len(c.Targets))
		copy(certs, a.certs)
		a.certs = certs
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
// static chunks, at every worker count. useCerts wires the certificate
// cache; AnalyzeAll's one-shot path disables it.
func (a *Analyzer) run(list []int, all, useCerts bool) {
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
			var st AnalyzerStats
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
					if a.detect(s, t, useCerts, &st) {
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
			a.stats.Analyzed += st.Analyzed
			a.stats.CertHits += st.CertHits
			a.stats.FullScans += s.Witness + s.Split
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
// matrix into s and decides it, by the cached certificate when useCerts
// is set and it still holds, by the split scan otherwise. A target under
// the sample floor is not analyzed and reads unicast.
func (a *Analyzer) detect(s *core.Scan, t int, useCerts bool, st *AnalyzerStats) bool {
	s.Radii, s.Slots = a.c.appendRadii(t, s.Radii[:0], s.Slots[:0])
	if len(s.Radii) < a.cfg.minSamples() {
		a.certs[t] = certEntry{}
		return false
	}
	st.Analyzed++
	if useCerts {
		if pc, ok := a.certToPositions(a.certs[t], s.Slots); ok {
			if anycast, conclusive := s.Revalidate(pc); conclusive {
				st.CertHits++
				return anycast
			}
		}
	}
	cert := s.Detect()
	if useCerts {
		a.certs[t] = certToSlots(cert, s.Slots)
	}
	return cert.Anycast()
}

// certToSlots rewrites a certificate's measurement positions as VP slots.
func certToSlots(c core.Certificate, vpIdx []int) certEntry {
	e := certEntry{kind: c.Kind}
	switch c.Kind {
	case core.CertUnicast:
		e.a = int32(vpIdx[c.I])
	case core.CertAnycast:
		e.a, e.b = int32(vpIdx[c.I]), int32(vpIdx[c.J])
	}
	return e
}

// certToPositions maps a slot-addressed certificate back to positions in
// the target's current measurement sequence. vpIdx is ascending (rows are
// appended in slot order), so each slot binary-searches. ok is false when
// there is no cached certificate or a referenced VP is absent from the
// sequence (it cannot be: cells never disappear under min-combine — but a
// miss must degrade to a full scan, not a wrong answer).
func (a *Analyzer) certToPositions(e certEntry, vpIdx []int) (core.Certificate, bool) {
	switch e.kind {
	case core.CertUnicast:
		i, ok := slotPos(vpIdx, int(e.a))
		return core.Certificate{Kind: e.kind, I: i}, ok
	case core.CertAnycast:
		i, ok1 := slotPos(vpIdx, int(e.a))
		j, ok2 := slotPos(vpIdx, int(e.b))
		return core.Certificate{Kind: e.kind, I: i, J: j}, ok1 && ok2
	}
	return core.Certificate{}, false
}

func slotPos(vpIdx []int, slot int) (int, bool) {
	i := sort.SearchInts(vpIdx, slot)
	return i, i < len(vpIdx) && vpIdx[i] == slot
}
