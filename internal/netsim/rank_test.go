package netsim

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// haversineRanking is the ranking as the reference computes it: the
// strict-< three-nearest cascade over PointDistanceKm, km[slot] being the
// distance to places[slot], in the rank group's Replicas order; -1 where
// the list is shorter.
func haversineRanking(km []float64, slots []int32) [3]int {
	i0, i1, i2 := -1, -1, -1
	d0, d1, d2 := math.MaxFloat64, math.MaxFloat64, math.MaxFloat64
	for i, slot := range slots {
		d := km[slot]
		switch {
		case d < d0:
			i2, i1, i0 = i1, i0, i
			d2, d1, d0 = d1, d0, d
		case d < d1:
			i2, i1 = i1, i
			d2, d1 = d1, d
		case d < d2:
			i2, d2 = i, d
		}
	}
	return [3]int{i0, i1, i2}
}

// checkRanks holds rank, for every rank group of w and every rank the
// group's list has, to the haversine cascade from vp, km being the
// scratch for the distances to every place. It returns how many ranks
// the near-tie fallback settled.
func checkRanks(t testing.TB, w *World, vp platform.VP, km []float64) (byDistance int) {
	t.Helper()
	var s vpSession
	w.buildSession(&s, vp)
	for i, p := range w.places {
		km[i] = geo.PointDistanceKm(s.pt, p)
	}
	for gi, g := range w.rankGroups {
		want := haversineRanking(km, g.slots)
		for r := range min(3, len(g.slots)) {
			got, tie := w.rank(&s, int32(gi), r)
			if got != want[r] {
				t.Fatalf("vp %v, rank group %d, rank %d: replica %d, the haversine cascade %v", vp.Loc, gi, r, got, want)
			}
			if tie {
				byDistance++
			}
		}
	}
	return byDistance
}

// antipode is the point diametrically opposite c.
func antipode(c geo.Coord) geo.Coord {
	lon := c.Lon + 180
	if lon > 180 {
		lon -= 360
	}
	return geo.Coord{Lat: -c.Lat, Lon: lon}
}

// rankingVPs are the vantage points TestSessionRankingMatchesHaversine
// ranks from: every PlanetLab and RIPE Atlas node; the given number of
// random points; if places is set, one on every distinct replica place
// and one on its antipode, where
// every cosine is near -1 and the haversine at its least accurate; the
// midpoint of each rank group's first two places, a near tie by
// construction, so the haversine fallback is walked; both poles; and the
// ±180° seam.
func rankingVPs(w *World, random int, places bool) []platform.VP {
	db := cities.Default()
	vps := append(platform.PlanetLab(db).VPs(), platform.RIPEAtlas(db).VPs()...)
	at := func(c geo.Coord) {
		vps = append(vps, platform.VP{ID: len(vps), Name: "synthetic", Loc: c, LoadFactor: 1})
	}
	r := rand.New(rand.NewSource(46))
	for range random {
		at(geo.Coord{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180})
	}
	seen := map[geo.Coord]bool{}
	for _, d := range w.deployments {
		for _, rep := range d.Replicas {
			if places && !seen[rep.Loc] {
				seen[rep.Loc] = true
				at(rep.Loc)
				at(antipode(rep.Loc))
			}
		}
	}
	for _, g := range w.rankGroups {
		if len(g.slots) >= 2 {
			reps := w.deployments[g.first].Replicas
			at(geo.Midpoint(reps[0].Loc, reps[1].Loc))
		}
	}
	for _, lon := range []float64{-180, -90, 0, 90, 180} {
		at(geo.Coord{Lat: 90, Lon: lon})
		at(geo.Coord{Lat: -90, Lon: lon})
	}
	for lat := -80.0; lat <= 80; lat += 10 {
		for _, lon := range []float64{-180, 180, -179.9999999, 179.9999999} {
			at(geo.Coord{Lat: lat, Lon: lon})
		}
	}
	return vps
}

// TestSessionRankingMatchesHaversine holds what rank reaches by dot
// product, falling back to the haversine only on a near tie, to the
// haversine cascade for every rank group and every rank its list has:
// from every rankingVPs vantage point in the default world, and from the
// platforms, 500 random points and the midpoints in the one with the
// longest replica lists (3,192 places; every vantage point there would
// take seconds). It also fails unless the fallback ran - the midpoints
// force near ties - and unless a fallback allocates nothing.
func TestSessionRankingMatchesHaversine(t *testing.T) {
	for _, c := range []struct {
		shape  worldShape
		random int
		places bool
	}{{sessionWorldShapes[0], 3000, true}, {sessionWorldShapes[len(sessionWorldShapes)-1], 500, false}} {
		t.Run(c.shape.name, func(t *testing.T) {
			w := New(c.shape.config())
			vps := rankingVPs(w, c.random, c.places)
			km := make([]float64, len(w.places))
			byDistance := 0
			for _, vp := range vps {
				byDistance += checkRanks(t, w, vp, km)
			}
			t.Logf("%d vantage points x %d rank groups: %d ranks settled by the haversine, %.2f per vantage point",
				len(vps), len(w.rankGroups), byDistance, float64(byDistance)/float64(len(vps)))
			if byDistance == 0 {
				t.Fatal("no rank fell back to the haversine: the near-tie path went untested")
			}
			s, g := tiedSession(t, w)
			if allocs := testing.AllocsPerRun(100, func() { w.rank(s, g, 0) }); allocs != 0 {
				t.Errorf("a near-tie rank allocates %v times, want 0", allocs)
			}
		})
	}
}

// tiedSession returns a session at the midpoint of the first two places of
// a rank group whose nearest replica from there is a near tie - rank 0
// falls back to the haversine - and that group.
func tiedSession(t testing.TB, w *World) (*vpSession, int32) {
	t.Helper()
	for gi, g := range w.rankGroups {
		if len(g.slots) < 2 {
			continue
		}
		reps := w.deployments[g.first].Replicas
		s := new(vpSession)
		w.buildSession(s, platform.VP{ID: 1, Loc: geo.Midpoint(reps[0].Loc, reps[1].Loc)})
		if _, tie := w.rank(s, int32(gi), 0); tie {
			return s, int32(gi)
		}
	}
	t.Fatal("no midpoint of two places makes a near tie")
	return nil, 0
}

// rankFuzzWorld is FuzzRankMatchesHaversine's world, built once.
var rankFuzzWorld = sync.OnceValue(func() *World { return New(sessionWorldShapes[0].config()) })

// FuzzRankMatchesHaversine holds rank, for every rank group of a small
// world and every rank its list has, to the haversine cascade from an
// arbitrary vantage point. The seeds are the midpoints of the first two
// places of rank groups, where the nearest two are a near tie and the
// fallback decides, the poles and the ±180° seam.
func FuzzRankMatchesHaversine(f *testing.F) {
	w := rankFuzzWorld()
	for _, g := range w.rankGroups[:min(64, len(w.rankGroups))] {
		if len(g.slots) >= 2 {
			reps := w.deployments[g.first].Replicas
			m := geo.Midpoint(reps[0].Loc, reps[1].Loc)
			f.Add(m.Lat, m.Lon)
		}
	}
	f.Add(90.0, 0.0)
	f.Add(-90.0, 180.0)
	f.Add(12.5, -180.0)
	f.Add(-40.0, 179.9999999)
	f.Fuzz(func(t *testing.T, lat, lon float64) {
		loc := geo.Coord{Lat: lat, Lon: lon}
		if !loc.Valid() {
			t.Skip("not a coordinate")
		}
		checkRanks(t, w, platform.VP{ID: 1, Loc: loc}, make([]float64, len(w.places)))
	})
}

// TestRankMarginBound measures the two errors rankMargin's derivation
// rests on and holds the margin to ten times their bound. A cosine gap g
// between two places means a true distance gap of at least
// EarthRadiusKm*(g - 2*dotErr), and each computed haversine is within
// haversineErrKm of its true distance, so a gap above rankMargin orders
// the haversines the same way as long as
// EarthRadiusKm*rankMargin > 2*haversineErrKm + 2*EarthRadiusKm*dotErr.
//   - haversineErrKm: PointDistanceKm against R*atan2(|u x v|, u.v) of
//     the unit vectors, which is well conditioned at every angle, over
//     every vantage point to every replica place and over near-antipodal
//     and near-coincident pairs, where the haversine's asin is quantised.
//   - dotErr: VecDot against 1 - 2h, the haversine's own cosine, which
//     reaches the cosine by a different road.
func TestRankMarginBound(t *testing.T) {
	const (
		haversineErrKm = 3e-4 // 0.3 m
		dotErr         = 1e-14
	)
	type pair struct{ a, b geo.Coord }
	var pairs []pair
	w := New(sessionWorldShapes[0].config())
	db := cities.Default()
	for _, vp := range append(platform.PlanetLab(db).VPs(), platform.RIPEAtlas(db).VPs()...) {
		for _, d := range w.deployments[:50] {
			for _, rep := range d.Replicas {
				pairs = append(pairs, pair{vp.Loc, rep.Loc})
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	point := func() geo.Coord { return geo.Coord{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180} }
	for range 200_000 {
		a := point()
		off := math.Pow(10, -12*r.Float64()) // degrees, 1e-12 to 1
		for _, c := range []geo.Coord{antipode(a), a} {
			b := geo.Coord{Lat: c.Lat + off*(r.Float64()-0.5), Lon: c.Lon + off*(r.Float64()-0.5)}
			if b.Valid() {
				pairs = append(pairs, pair{a, b})
			}
		}
		pairs = append(pairs, pair{a, point()})
	}

	worstKm, worstDot := 0.0, 0.0
	for _, p := range pairs {
		u, v := geo.UnitVec(p.a), geo.UnitVec(p.b)
		cross := [3]float64{u[1]*v[2] - u[2]*v[1], u[2]*v[0] - u[0]*v[2], u[0]*v[1] - u[1]*v[0]}
		exact := geo.EarthRadiusKm * math.Atan2(math.Sqrt(geo.VecDot(cross, cross)), geo.VecDot(u, v))
		worstKm = max(worstKm, math.Abs(geo.DistanceKm(p.a, p.b)-exact))

		la, lb := p.a.Lat*math.Pi/180, p.b.Lat*math.Pi/180
		sLat, sLon := math.Sin((lb-la)/2), math.Sin((p.b.Lon-p.a.Lon)*math.Pi/360)
		h := sLat*sLat + math.Cos(la)*math.Cos(lb)*sLon*sLon
		worstDot = max(worstDot, math.Abs(geo.VecDot(u, v)-(1-2*h)))
	}
	bound := 2*haversineErrKm + 2*geo.EarthRadiusKm*dotErr
	t.Logf("%d pairs: haversine error up to %.3g km, cosine disagreement up to %.3g; bound %.3g km, margin %.3g km (%.1fx)",
		len(pairs), worstKm, worstDot, bound, geo.EarthRadiusKm*rankMargin, geo.EarthRadiusKm*rankMargin/bound)
	if worstKm > haversineErrKm {
		t.Errorf("haversine error %g km exceeds the %g km the margin assumes", worstKm, haversineErrKm)
	}
	if worstDot > dotErr {
		t.Errorf("cosine disagreement %g exceeds the %g the margin assumes", worstDot, dotErr)
	}
	if geo.EarthRadiusKm*rankMargin < 10*bound {
		t.Errorf("margin %g km is under ten times the %g km error bound", geo.EarthRadiusKm*rankMargin, bound)
	}
}
