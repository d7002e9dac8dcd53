package census

import (
	"math"
	"sync"

	"anycastmap/internal/geo"
)

// This file is the process-wide table of vantage-point pair distances.
// Every analysis needs the great-circle distance between each two of its
// vantage points, and a process analyzes the same few hundred places over
// and over: the timed reps of a benchmark, a daemon's re-sampled subset per
// refresh, an ablation's growing prefixes, one census per month of a
// longitudinal study. What repeats across those is the pair of coordinates,
// not the vantage-point list, so the table is keyed by coordinate and an
// analysis pays a haversine only for a pair no analysis of this process has
// read before.

// vpDistCap bounds the table to this many distinct coordinates: at 8 bytes
// a pair, 16 MiB when full. Both built-in platforms together (302 + 1,264
// vantage points) fit. A list that would overflow it starts the table over;
// a list longer than the cap is measured directly, without the table.
const vpDistCap = 2048

// vpDistances is the one table every Analyzer fills its matrix from.
var vpDistances = &distTable{cap: vpDistCap}

// coordKey identifies a coordinate by its bits: unlike float equality it
// tells +0 from -0 and finds a NaN again, so a cell is only ever handed to
// the exact inputs it was computed from.
type coordKey [2]uint64

func keyOf(c geo.Coord) coordKey {
	return coordKey{math.Float64bits(c.Lat), math.Float64bits(c.Lon)}
}

// distTable is an append-only triangular matrix over the distinct
// coordinates it has been shown. The cell of points hi > lo is in row hi;
// zero means "not measured yet" (or a true zero distance between distinct
// keys, which is then simply measured again: the answer is the same +0).
// Cells are measured on first read and a row starts at the first point of
// the list that brought it in, so a new coordinate costs - haversines and
// memory - its pairs with the coordinates it is analyzed with, never with
// everything the table happens to hold.
type distTable struct {
	cap int

	mu   sync.Mutex
	idx  map[coordKey]int32
	pts  []geo.Point
	rows []distRow
}

// distRow holds the distances from one point to the points base, base+1, ...
// up to itself. A read below base widens the row to start at point 0.
type distRow struct {
	base  int32
	cells []float64
}

// fill writes the row-major n x n distance matrix of locs into dst (length
// n*n, diagonal left as it is) and returns how many haversines that took.
// Every cell is bitwise geo.DistanceKm of its two coordinates: the
// haversine is bitwise symmetric (TestTriangleDefectBelowMargin), so which
// of the two was seen first does not show.
func (t *distTable) fill(dst []float64, locs []geo.Coord) (measured int64) {
	n := len(locs)
	if n > t.cap {
		pts := make([]geo.Point, n)
		pos := make([]int, n)
		for i, loc := range locs {
			pts[i], pos[i] = geo.Prepare(loc), i
		}
		return measurePairs(dst, n, pos, pts, nil)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	at, added := t.resolve(locs)
	if len(added) > 0 {
		// The coordinates this list brought in are measured against each
		// other the way a list without a table is: the miss path pays for
		// no lookup, only for the store into their rows.
		first := len(t.pts) - len(added)
		measured = measurePairs(dst, n, added, t.pts[first:], t.rows[first:])
		if len(added) == n {
			return measured
		}
	}
	// Every pair with a coordinate the table already held: copied out, or
	// measured now if no list has held the two together before.
	for i := 1; i < n; i++ {
		ti := at[i]
		for j := 0; j < i; j++ {
			hi, lo := ti, at[j]
			if hi < lo {
				hi, lo = lo, hi
			}
			var d float64
			if hi != lo { // the same coordinate twice in one list: 0, as measured
				row := &t.rows[hi]
				if lo < row.base {
					wide := make([]float64, hi)
					copy(wide[row.base:], row.cells)
					row.base, row.cells = 0, wide
				}
				cell := &row.cells[lo-row.base]
				if d = *cell; d == 0 {
					d = geo.PointDistanceKm(t.pts[lo], t.pts[hi])
					*cell = d
					measured++
				}
			}
			dst[i*n+j], dst[j*n+i] = d, d
		}
	}
	return measured
}

// measurePairs writes the distance between every two of pts into the n x n
// matrix dst, pts[k] sitting at row and column pos[k], and returns their
// number. rows, if given, keep them: rows[k].cells (length k) takes
// pts[k]'s distances to the points before it.
func measurePairs(dst []float64, n int, pos []int, pts []geo.Point, rows []distRow) int64 {
	scratch := make([]float64, len(pos))
	for l := 1; l < len(pos); l++ {
		j, pl := pos[l], pts[l]
		cells := scratch[:l]
		if rows != nil {
			cells = rows[l].cells
		}
		for k := range cells {
			i := pos[k]
			d := geo.PointDistanceKm(pts[k], pl)
			cells[k] = d
			dst[i*n+j], dst[j*n+i] = d, d
		}
	}
	return int64(len(pos)) * int64(len(pos)-1) / 2
}

// resolve returns the table index of every coordinate of locs, adding the
// ones it has not seen, and the positions in locs of the added ones in the
// order they were added. When they do not all fit the table starts over
// with this list alone.
func (t *distTable) resolve(locs []geo.Coord) (at []int32, added []int) {
	at = make([]int32, len(locs))
	first := len(t.pts)
	for i := 0; i < len(locs); i++ {
		k := keyOf(locs[i])
		ti, ok := t.idx[k]
		if !ok {
			if len(t.pts) == t.cap {
				// Full: forget everything, this list's points included,
				// and take the list from its start. It fits alone.
				t.idx, t.pts, t.rows = nil, nil, nil
				first, added, i = 0, added[:0], -1
				continue
			}
			if t.idx == nil {
				t.idx = make(map[coordKey]int32, len(locs))
			}
			ti = int32(len(t.pts))
			t.idx[k] = ti
			t.pts = append(t.pts, geo.Prepare(locs[i]))
			added = append(added, i)
		}
		at[i] = ti
	}
	if len(added) > 0 {
		// The new points' rows start at the first of them and are carved
		// from one allocation: k new points, k(k-1)/2 cells.
		slab := make([]float64, len(added)*(len(added)-1)/2)
		for w := range added {
			t.rows = append(t.rows, distRow{base: int32(first), cells: slab[:w:w]})
			slab = slab[w:]
		}
	}
	return at, added
}
