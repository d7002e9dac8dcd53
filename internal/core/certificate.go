package core

import (
	"sort"

	"anycastmap/internal/geo"
)

// Detection asks one question of a target's disks: is some pair disjoint
// (a speed-of-light violation — anycast), that is, does
//
//	d(i, j) > r_i + r_j + geo.OverlapEpsKm
//
// hold for any i, j. Scan.Detect answers it exactly without testing every
// pair. Take the centre p of the smallest disk and split the disks into C,
// those holding p at least geo.ContainMarginKm deep (d(i, p) <= r_i - m),
// and F, the rest. For i, j in C the triangle inequality gives
// d(i, j) <= d(i, p) + d(p, j) <= r_i + r_j - 2m, so the pair overlaps
// under the test above as long as the computed distances break the
// triangle inequality by less than 2m — geo.ContainMarginKm says how far
// below that geo.DistanceKm stays. Only pairs touching F are left: F empty
// is a unicast verdict in one O(n) pass (the witness case), and otherwise
// F x all is tested, O(|F| n). The host of an honest unicast target sits
// up to r_min from p, so F is often not empty — 44% of PlanetLab unicast
// targets miss the witness, with 19 of 294 disks in F on average, and 27%
// on a RIPE-like platform, with 6 of 390 (EXPERIMENTS.md) — but it is
// always small. The pair scan every verdict is defined by survives as
// firstDisjointPair, the reference of the tests.
//
// Successive censuses mostly shrink a few disks of a few targets, so the
// certificate of the previous analysis usually still decides the target:
// Revalidate re-checks it without a split. The incremental census analyzer
// (internal/census/analyzer.go) caches one Certificate per target.

// CertKind classifies a detection certificate.
type CertKind uint8

const (
	// CertNone is the zero value: no certificate is known. A unicast
	// target decided by the split scan (F not empty, no disjoint pair)
	// ends up here.
	CertNone CertKind = iota
	// CertUnicast records a witness disk whose center lies margin-deep
	// inside every disk, certifying that all disks pairwise overlap.
	CertUnicast
	// CertAnycast records a proven disjoint disk pair.
	CertAnycast
)

// Certificate is the cached outcome of one detection pass over one
// target's disks. Indices are positions in the disks slice the
// certificate was extracted from; callers caching certificates across
// rounds must remap them if measurement positions shift (the census
// analyzer stores vantage-point slots and remaps).
type Certificate struct {
	Kind CertKind
	// I is the witness disk for CertUnicast, or the first disk of the
	// disjoint pair for CertAnycast.
	I int
	// J is the second disk of the disjoint pair (CertAnycast only).
	J int
}

// Anycast reports whether the certificate proves the target anycast.
func (c Certificate) Anycast() bool { return c.Kind == CertAnycast }

// Scan is the analysis kernel's view of one target plus its scratch, kept
// per worker so a unicast verdict allocates nothing. The caller sets Row
// once and Radii and Slots per target.
type Scan struct {
	// Radii[i] is disk i's radius in km.
	Radii []float64
	// Slots[i] names disk i's center: its index in the rows Row returns.
	// The census uses vantage-point slots; the adapters use 0..n-1.
	Slots []int
	// Row returns the distances in km from center slot to every center,
	// indexed by slot, bitwise equal to geo.DistanceKm. The slice need
	// only stay valid until the next call.
	Row func(slot int) []float64
	// At, when set, is the distance between the centers of disks i and j
	// for the callers that ask pair by pair (the enumeration); nil reads
	// it from the rows, which suits a matrix and not an adapted oracle.
	At CenterDist

	// Witness and Split count Detect calls decided by an empty F and by
	// the F x all scan; PairTests counts the pair tests both executed.
	Witness, Split, PairTests int64

	far []int
	enum
}

// Detect runs the split scan over the current target and counts it.
func (s *Scan) Detect() Certificate {
	if len(s.Radii) < 2 {
		return Certificate{}
	}
	c, tests := s.split()
	s.PairTests += int64(tests)
	if c.Kind == CertUnicast {
		s.Witness++
	} else {
		s.Split++
	}
	return c
}

// split is the scan itself; it also returns how many pairs it tested.
func (s *Scan) split() (_ Certificate, tests int) {
	radii, slots := s.Radii, s.Slots
	p := 0
	for i, r := range radii {
		if r < radii[p] {
			p = i
		}
	}
	far, row := s.far[:0], s.Row(slots[p])
	for i, r := range radii {
		d := row[slots[i]]
		if d <= r-geo.ContainMarginKm {
			continue
		}
		far = append(far, i)
		if d > r+radii[p]+geo.OverlapEpsKm && i != p {
			s.far = far
			return Certificate{Kind: CertAnycast, I: p, J: i}, len(far)
		}
	}
	s.far, tests = far, len(far)
	if len(far) == 0 {
		return Certificate{Kind: CertUnicast, I: p}, 0
	}
	for _, f := range far {
		row, rf := s.Row(slots[f]), radii[f]
		for j, r := range radii {
			if row[slots[j]] > rf+r+geo.OverlapEpsKm && j != f {
				return Certificate{Kind: CertAnycast, I: f, J: j}, tests + j + 1
			}
		}
		tests += len(radii)
	}
	return Certificate{}, tests
}

// Revalidate re-checks a certificate extracted from a previous analysis of
// the same target against the current one, in O(n) for a witness and O(1)
// for a pair. When ok is true the verdict (anycast) is exactly Detect's;
// ok false means the certificate no longer decides the target. Under a
// minimum-RTT combine disks only ever shrink: a disjoint pair stays
// disjoint while a shrunken disk may exclude the witness.
func (s *Scan) Revalidate(c Certificate) (anycast, ok bool) {
	n := len(s.Radii)
	if c.Kind == CertNone || c.I < 0 || c.I >= n {
		return false, false
	}
	row := s.Row(s.Slots[c.I])
	switch c.Kind {
	case CertUnicast:
		for i, r := range s.Radii {
			if !(row[s.Slots[i]] <= r-geo.ContainMarginKm) {
				return false, false
			}
		}
		return false, true
	case CertAnycast:
		if j := c.J; j >= 0 && j < n && j != c.I &&
			row[s.Slots[j]] > s.Radii[c.I]+s.Radii[j]+geo.OverlapEpsKm {
			return true, true
		}
	}
	return false, false
}

// km is the distance between the centers of disks i and j.
func (s *Scan) km(i, j int) float64 {
	if s.At != nil {
		return s.At(i, j)
	}
	return s.Row(s.Slots[i])[s.Slots[j]]
}

// newScan adapts n disks whose center distances come from an oracle to
// the kernel, materialising the row the kernel asks for; the caller fills
// Radii.
func newScan(n int, dist CenterDist) *Scan {
	buf := make([]float64, 2*n)
	s := &Scan{Radii: buf[:n], Slots: make([]int, n), At: dist}
	for i := range s.Slots {
		s.Slots[i] = i
	}
	s.Row = func(i int) []float64 {
		row := buf[n:]
		for j := range row {
			row[j] = dist(i, j)
		}
		return row
	}
	return s
}

// scanOf is newScan over disks; a nil oracle means live haversines.
func scanOf(disks []geo.Disk, dist CenterDist) *Scan {
	if dist == nil {
		dist = func(i, j int) float64 { return geo.DistanceKm(disks[i].Center, disks[j].Center) }
	}
	s := newScan(len(disks), dist)
	for i, d := range disks {
		s.Radii[i] = d.RadiusKm
	}
	return s
}

// DetectCert runs the detection pass over the disks and returns its
// certificate: CertAnycast means proven anycast, anything else means no
// pair is disjoint.
func DetectCert(disks []geo.Disk, dist CenterDist) Certificate {
	return scanOf(disks, dist).Detect()
}

// Revalidate is Scan.Revalidate over disks and an optional oracle.
func (c Certificate) Revalidate(disks []geo.Disk, dist CenterDist) (anycast, ok bool) {
	return scanOf(disks, dist).Revalidate(c)
}

// firstDisjointPair is the definition Detect is measured against and the
// pair finder of Enumerate's fallback: every pair in order of radius
// (small disks are the most likely to be disjoint), first violation wins.
func firstDisjointPair(disks []geo.Disk, dist CenterDist) (i, j int, ok bool) {
	n := len(disks)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return disks[order[a]].RadiusKm < disks[order[b]].RadiusKm })
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			i, j := order[a], order[b]
			if dist(i, j) > disks[i].RadiusKm+disks[j].RadiusKm+geo.OverlapEpsKm { // !Overlaps
				return i, j, true
			}
		}
	}
	return 0, 0, false
}
