package cities

import (
	"math"
	"sort"

	"anycastmap/internal/geo"
)

// Index accelerates disk queries over a city set with a latitude-band grid:
// LargestInDisk is the inner loop of the geolocation step (it runs once per
// MIS disk per iteration per anycast target), so the census analysis is
// sensitive to its cost. The index prunes by bounding box before paying for
// haversine distances and scans candidates in decreasing-population order
// with early exit, preserving the exact semantics of the linear scan. Every
// city's location is prepared once (geo.Point) and a query prepares its
// disk's centre once, so a candidate costs the pair-dependent half of the
// haversine only.
type Index struct {
	db  *DB
	pts []geo.Point // prepared location of db.All()[i]
	// bands[i] holds, sorted by decreasing population, the indices of
	// cities whose latitude falls in band i.
	bands    [][]int32
	bandDeg  float64
	minLat   float64
	numBands int
}

// NewIndex builds an index over the database. bandDeg is the latitude band
// height in degrees; 0 means a default of 10.
func NewIndex(db *DB, bandDeg float64) *Index {
	if bandDeg <= 0 {
		bandDeg = 10
	}
	idx := &Index{db: db, bandDeg: bandDeg, minLat: -90}
	idx.numBands = int(math.Ceil(180/bandDeg)) + 1
	idx.bands = make([][]int32, idx.numBands)
	idx.pts = make([]geo.Point, len(db.All()))
	for i, c := range db.All() { // already sorted by decreasing population
		b := idx.bandOf(c.Loc.Lat)
		idx.bands[b] = append(idx.bands[b], int32(i))
		idx.pts[i] = geo.Prepare(c.Loc)
	}
	return idx
}

func (idx *Index) bandOf(lat float64) int {
	b := int((lat - idx.minLat) / idx.bandDeg)
	if b < 0 {
		b = 0
	}
	if b >= idx.numBands {
		b = idx.numBands - 1
	}
	return b
}

// kmPerDegLat is the meridian arc length of one degree of latitude.
const kmPerDegLat = math.Pi * geo.EarthRadiusKm / 180

// bandRange returns the band indices a disk can touch.
func (idx *Index) bandRange(d geo.Disk) (lo, hi int) {
	dLat := d.RadiusKm / kmPerDegLat
	return idx.bandOf(d.Center.Lat - dLat), idx.bandOf(d.Center.Lat + dLat)
}

// LargestInDisk returns the most populated city inside the disk, exactly as
// DB.LargestInDisk would.
func (idx *Index) LargestInDisk(d geo.Disk) (City, bool) {
	lo, hi := idx.bandRange(d)
	centre, reach := geo.Prepare(d.Center), d.RadiusKm+geo.OverlapEpsKm // d.Contains, spelled out
	best := int32(-1)
	for b := lo; b <= hi; b++ {
		for _, ci := range idx.bands[b] {
			if best >= 0 && ci >= best {
				// Later indices in this band are less populated than the
				// current best; bands are sorted, so stop scanning it.
				break
			}
			if geo.PointDistanceKm(centre, idx.pts[ci]) <= reach {
				best = ci
				break
			}
		}
	}
	if best < 0 {
		return City{}, false
	}
	return idx.db.All()[best], true
}

// InDisk returns the cities inside the disk in decreasing-population order,
// exactly as DB.InDisk would.
func (idx *Index) InDisk(d geo.Disk) []City {
	lo, hi := idx.bandRange(d)
	all := idx.db.All()
	centre, reach := geo.Prepare(d.Center), d.RadiusKm+geo.OverlapEpsKm // d.Contains, as in LargestInDisk
	var hits []int32
	for b := lo; b <= hi; b++ {
		for _, ci := range idx.bands[b] {
			if geo.PointDistanceKm(centre, idx.pts[ci]) <= reach {
				hits = append(hits, ci)
			}
		}
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a] < hits[b] })
	out := make([]City, len(hits))
	for i, ci := range hits {
		out[i] = all[ci]
	}
	return out
}
