// Package core implements the paper's primary analysis technique
// (Fig. 3; Cicalese et al., "A fistful of pings", INFOCOM 2015, applied at
// census scale in the CoNEXT 2015 paper this repository reproduces):
// latency-based anycast detection, enumeration and geolocation.
//
// Given RTT samples from geographically dispersed vantage points toward one
// target address:
//
//  1. each sample is mapped to a disk centred at the vantage point whose
//     radius is the distance light travels in fiber in RTT/2 — the answering
//     replica provably lies inside the disk;
//  2. two disjoint disks are a speed-of-light violation, proving the target
//     is announced from at least two locations (detection);
//  3. a Maximum Independent Set over the disk intersection graph
//     lower-bounds the number of replicas; the NP-hard MIS is approximated
//     greedily over disks of increasing radius, a 5-approximation for unit
//     ball graphs (enumeration);
//  4. each independent disk is classified to the most populated city it
//     contains — the maximum-likelihood classifier with population bias
//     that the paper found ~75% accurate at city level (geolocation);
//  5. classified disks are collapsed onto their city and the process
//     repeats until the replica set converges, increasing recall
//     (iteration).
package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
)

// Measurement is one latency sample toward the target under analysis.
type Measurement struct {
	// VP names the vantage point (for reporting only).
	VP string
	// VPLoc is the vantage point location.
	VPLoc geo.Coord
	// RTT is the minimum observed round-trip time from this vantage
	// point; the caller should combine repeated probes by minimum so the
	// sample approaches the propagation delay.
	RTT time.Duration
}

// Disk maps the measurement to its constraint disk.
func (m Measurement) Disk() geo.Disk { return geo.DiskFromRTT(m.VPLoc, m.RTT) }

// GeoReplica is one enumerated (and, when possible, geolocated) replica.
type GeoReplica struct {
	// VP is the vantage point whose disk isolated this replica.
	VP string
	// Disk is the final (possibly city-collapsed) disk.
	Disk geo.Disk
	// City is the classified location; valid only when Located.
	City cities.City
	// Located is false when the disk contains no known city; the replica
	// still counts toward enumeration.
	Located bool
}

func (g GeoReplica) String() string {
	if g.Located {
		return fmt.Sprintf("%v (via %s)", g.City, g.VP)
	}
	return fmt.Sprintf("unlocated %v (via %s)", g.Disk, g.VP)
}

// Result is the outcome of the full analysis of one target.
type Result struct {
	// Anycast is true when a speed-of-light violation proves at least
	// two replicas.
	Anycast bool
	// Replicas is the conservative enumeration: pairwise geo-consistent
	// replicas, each carrying its classification. Empty for unicast
	// targets.
	Replicas []GeoReplica
	// Iterations is how many enumerate-geolocate rounds ran before
	// convergence.
	Iterations int
}

// Count returns the conservative replica count (the MIS lower bound).
func (r Result) Count() int { return len(r.Replicas) }

// Cities returns the sorted distinct city keys of located replicas.
func (r Result) Cities() []string {
	set := map[string]bool{}
	for _, g := range r.Replicas {
		if g.Located {
			set[g.City.Key()] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Options tunes the analysis.
type Options struct {
	// MaxIterations bounds the enumerate-geolocate loop; 0 means the
	// default of 10. The loop normally converges in 2-3 iterations.
	MaxIterations int
}

func (o Options) maxIter() int {
	if o.MaxIterations <= 0 {
		return 10
	}
	return o.MaxIterations
}

// Detect reports whether the measurements prove the target anycast: some
// pair of disks is disjoint. It is the cheap census-wide pass; Analyze
// gives the full enumeration and geolocation. The verdict comes from the
// split scan of scan.go, exact and linear in the common case.
func Detect(ms []Measurement) bool {
	return scanOf(disksOf(ms), nil).Detect()
}

// CenterDist lets callers supply a precomputed oracle for the distance in
// km between the centers of disks i and j, replacing the haversine
// evaluation in detection and enumeration. The values must be bitwise
// equal to geo.DistanceKm(disks[i].Center, disks[j].Center) - a VP-pair
// distance matrix satisfies this, because every disk of a target is
// centered at a vantage point. nil means compute live.
type CenterDist func(i, j int) float64

// disksOf maps measurements to disks.
func disksOf(ms []Measurement) []geo.Disk {
	out := make([]geo.Disk, len(ms))
	for i, m := range ms {
		out[i] = m.Disk()
	}
	return out
}

// MISGreedy returns the indices of an independent (pairwise disjoint) set
// of disks, built greedily over disks of increasing radius. For disk
// graphs this is a 5-approximation of the maximum independent set, and in
// practice it is near-optimal (the paper validates it against brute
// force).
func MISGreedy(disks []geo.Disk) []int {
	radii := make([]float64, len(disks))
	for i, d := range disks {
		radii[i] = d.RadiusKm
	}
	var e enum
	e.sortByRadius(radii)
	e.greedy(radii, func(i, j int) float64 { return geo.DistanceKm(disks[i].Center, disks[j].Center) })
	return e.mis
}

// enum is the scratch of the greedy set and of Enumerate around it.
type enum struct {
	order  []int  // every disk by (radius, index): a stable sort by radius
	mis    []int  // the greedy set, ascending
	hit    []int  // the chosen disk that last ruled disk i out
	picked []bool // membership in mis while it is being built

	ws   []work
	cur  []float64 // current radii: 0 once located
	prev []int
	// cityKm holds, per located disk, the distance from its city to every
	// measurement's vantage point, computed on first use (0 until then):
	// the iterations ask for the same ones again.
	cityKm []float64
}

// resized returns s with length n, zeroed, reusing its array when it can.
func resized[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// sortByRadius sizes the greedy scratch for the radii's disks and sorts
// order.
func (e *enum) sortByRadius(radii []float64) {
	n := len(radii)
	e.order, e.hit, e.picked = resized(e.order, n), resized(e.hit, n), resized(e.picked, n)
	for i := range e.order {
		e.order[i] = i
	}
	slices.SortFunc(e.order, func(a, b int) int {
		switch ra, rb := radii[a], radii[b]; {
		case ra < rb:
			return -1
		case ra > rb:
			return 1
		}
		return a - b
	})
}

// greedy fills mis from order; dist(i, j) is asked with j already chosen.
func (e *enum) greedy(radii []float64, dist func(i, j int) float64) {
	overlaps := func(i, j int) bool { return dist(i, j) <= radii[i]+radii[j]+geo.OverlapEpsKm }
	e.mis = e.mis[:0]
	clear(e.picked)
next:
	for _, i := range e.order {
		// Whether i overlaps some chosen disk does not depend on the order
		// they are asked in, so the one that ruled i out in the last pass
		// goes first: after a collapse it mostly still does, and that is
		// one distance instead of a walk through the chosen cities.
		if j := e.hit[i]; e.picked[j] && overlaps(i, j) {
			continue
		}
		for _, j := range e.mis {
			if overlaps(i, j) {
				e.hit[i] = j
				continue next
			}
		}
		e.mis, e.picked[i] = append(e.mis, i), true
	}
	slices.Sort(e.mis)
}

// MISBrute returns an exact maximum independent set by exhaustive search.
// It exists to validate MISGreedy in tests and is exponential: inputs are
// limited to 24 disks.
func MISBrute(disks []geo.Disk) []int {
	n := len(disks)
	if n > 24 {
		panic("core: MISBrute limited to 24 disks")
	}
	// Precompute the conflict graph.
	conflict := make([]uint32, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if disks[i].Overlaps(disks[j]) {
				conflict[i] |= 1 << j
				conflict[j] |= 1 << i
			}
		}
	}
	var best uint32
	bestSize := 0
	for mask := uint32(0); mask < 1<<n; mask++ {
		size := popcount(mask)
		if size <= bestSize {
			continue
		}
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) != 0 && conflict[i]&mask != 0 {
				ok = false
			}
		}
		if ok {
			best, bestSize = mask, size
		}
	}
	out := make([]int, 0, bestSize)
	for i := 0; i < n; i++ {
		if best&(1<<i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Locator is the geolocation side channel the analysis classifies disks
// with: *cities.DB satisfies it directly, *cities.Index satisfies it with a
// spatial index (the census pipeline uses the latter - LargestInDisk runs
// once per MIS disk per iteration per anycast target).
type Locator interface {
	LargestInDisk(geo.Disk) (cities.City, bool)
}

// Analyze runs the full detection / enumeration / geolocation / iteration
// pipeline over the measurements for one target.
func Analyze(db *cities.DB, ms []Measurement, opt Options) Result {
	return AnalyzeWithDist(db, ms, nil, opt)
}

// AnalyzeWithDist is Analyze over any Locator, with a CenterDist oracle
// replacing the haversines between the measurements' vantage points, in
// detection and in enumeration alike (nil: the haversines).
func AnalyzeWithDist(db Locator, ms []Measurement, dist CenterDist, opt Options) Result {
	if len(ms) < 2 {
		return Result{}
	}
	if dist == nil {
		dist = func(i, j int) float64 { return geo.DistanceKm(ms[i].VPLoc, ms[j].VPLoc) }
	}
	s := newScan(len(ms), dist)
	for i, m := range ms {
		s.Radii[i] = geo.DiskRadiusKm(m.RTT)
	}
	if !s.Detect() {
		return Result{}
	}
	return s.Enumerate(db, ms, opt)
}

// work is the evolving disk of one measurement plus its classification
// state.
type work struct {
	disk      geo.Disk
	city      cities.City
	located   bool // disk is city's point
	collapsed bool
	cityOff   int // once located: where city's distances start in enum.cityKm
}

// Enumerate is the enumeration / geolocation / iteration tail of
// AnalyzeWithDist for the scan's current target, already proven anycast by
// Detect. ms must be the measurements Radii and Slots were taken from. The
// rare single-disk-MIS fallback below derives the proven pair with the
// reference scan, so the reported replicas never depend on how the split
// scan reached its verdict.
func (s *Scan) Enumerate(db Locator, ms []Measurement, opt Options) Result {
	n := len(ms)
	ws, cur := slices.Grow(s.ws[:0], n), append(s.cur[:0], s.Radii...)
	for i, m := range ms {
		ws = append(ws, work{disk: geo.Disk{Center: m.VPLoc, RadiusKm: cur[i]}})
	}
	s.ws, s.cur, s.prev, s.cityKm = ws, cur, s.prev[:0], s.cityKm[:0]
	s.sortByRadius(cur)
	// Vantage points' distances are the scan's; a city's are computed at
	// most once per target.
	dist := func(i, j int) float64 {
		switch li, lj := ws[i].located, ws[j].located; {
		case !li && !lj:
			return s.km(i, j)
		case li && lj:
			return geo.DistanceKm(ws[i].disk.Center, ws[j].disk.Center)
		case lj:
			i, j = j, i
		}
		d := &s.cityKm[ws[i].cityOff+j]
		if *d == 0 {
			*d = geo.DistanceKm(ws[i].disk.Center, ws[j].disk.Center)
		}
		return *d
	}
	iter := 0
	for ; iter < opt.maxIter(); iter++ {
		s.greedy(cur, dist)

		// Geolocate and collapse the newly independent disks.
		changed := false
		for _, i := range s.mis {
			w := &ws[i]
			if w.collapsed {
				continue
			}
			if city, ok := db.LargestInDisk(w.disk); ok {
				w.city, w.located, w.cityOff = city, true, len(s.cityKm)
				w.disk, cur[i] = geo.Disk{Center: city.Loc}, 0
				s.cityKm = slices.Grow(s.cityKm, n)[:w.cityOff+n]
				clear(s.cityKm[w.cityOff:])
				// Keep order sorted: i moves ahead of every larger radius
				// and of the zero radii with a larger index.
				k := slices.Index(s.order, i)
				for ; k > 0 && (cur[s.order[k-1]] > 0 || cur[s.order[k-1]] == 0 && s.order[k-1] > i); k-- {
					s.order[k] = s.order[k-1]
				}
				s.order[k] = i
			}
			w.collapsed, changed = true, true
		}

		// Converged when the replica set is stable and nothing collapsed.
		if !changed && slices.Equal(s.mis, s.prev) {
			break
		}
		s.prev = append(s.prev[:0], s.mis...)
	}

	// The greedy MIS can (rarely) return a single disk even though
	// detection proved two disjoint ones exist; enumeration must still
	// report at least the proven pair.
	mis := s.mis
	if len(mis) < 2 {
		disks := disksOf(ms)
		i, j, _ := firstDisjointPair(disks, s.km)
		mis = []int{i, j}
		for _, k := range mis {
			if !ws[k].collapsed {
				if city, ok := db.LargestInDisk(disks[k]); ok {
					ws[k].city = city
					ws[k].located = true
				}
			}
		}
	}

	reps := make([]GeoReplica, 0, len(mis))
	for _, i := range mis {
		reps = append(reps, GeoReplica{
			VP:      ms[i].VP,
			Disk:    ws[i].disk,
			City:    ws[i].city,
			Located: ws[i].located,
		})
	}
	return Result{Anycast: true, Replicas: reps, Iterations: iter + 1}
}
