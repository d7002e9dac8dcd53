package geo_test

import (
	"math"
	"math/rand"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// refDistanceKm is DistanceKm as it was written before the prepared-point
// kernel: six trigonometric calls on the two coordinates. It lives here,
// in the tests, as the reference PointDistanceKm must reproduce bit for
// bit - every RTT the simulator draws and every disk test the census runs
// reads these bits.
func refDistanceKm(a, b geo.Coord) float64 {
	deg2rad := func(d float64) float64 { return d * math.Pi / 180 }
	la1, lo1 := deg2rad(a.Lat), deg2rad(a.Lon)
	la2, lo2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dLat := la2 - la1
	dLon := lo2 - lo1
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	if h > 1 {
		h = 1
	}
	return 2 * geo.EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// checkPair compares every way of reaching the kernel against the
// reference and returns false on the first differing bit.
func checkPair(t testing.TB, a, b geo.Coord) bool {
	t.Helper()
	want := math.Float64bits(refDistanceKm(a, b))
	pa, pb := geo.Prepare(a), geo.Prepare(b)
	for _, got := range [...]struct {
		name string
		km   float64
	}{
		{"DistanceKm", geo.DistanceKm(a, b)},
		{"PointDistanceKm", geo.PointDistanceKm(pa, pb)},
		{"PointDistanceKm with PrepareCos", geo.PointDistanceKm(pa, geo.PrepareCos(b, pb.CosLat()))},
	} {
		if math.Float64bits(got.km) != want {
			t.Errorf("%s(%v, %v) = %v (%#x), reference %v (%#x)", got.name, a, b,
				got.km, math.Float64bits(got.km), math.Float64frombits(want), want)
			return false
		}
	}
	return true
}

// pointDistanceCorners are the places a haversine goes wrong first: the
// poles, the antimeridian, identical points, exact and near antipodes.
var pointDistanceCorners = [][2]geo.Coord{
	{{Lat: 90, Lon: 0}, {Lat: -90, Lon: 0}},
	{{Lat: 90, Lon: 0}, {Lat: 90, Lon: 135}},
	{{Lat: -90, Lon: -180}, {Lat: 48.8566, Lon: 2.3522}},
	{{Lat: 89.999999, Lon: 179.999999}, {Lat: 89.999999, Lon: -179.999999}},
	{{Lat: 0, Lon: 180}, {Lat: 0, Lon: -180}},
	{{Lat: 12.5, Lon: 179.9999}, {Lat: 12.5, Lon: -179.9999}},
	{{Lat: -33.8688, Lon: 151.2093}, {Lat: -33.8688, Lon: 151.2093}},
	{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 0}},
	{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 180}},
	{{Lat: 35.6762, Lon: 139.6503}, {Lat: -35.6762, Lon: -40.3497}},
	{{Lat: 35.6762, Lon: 139.6503}, {Lat: -35.6762 + 1e-9, Lon: -40.3497 - 1e-9}},
	{{Lat: 1e-300, Lon: -1e-300}, {Lat: -1e-300, Lon: 1e-300}},
}

// TestPointDistanceBitIdentical holds the one haversine kernel to the
// six-call expression it replaced, math.Float64bits for math.Float64bits:
// on seeded random pairs over the whole sphere, on every (vantage point,
// city) pair of both platforms - the distances the span resolver, the
// analyzer's VP matrix and the city index compute - and at the corners.
func TestPointDistanceBitIdentical(t *testing.T) {
	for _, c := range pointDistanceCorners {
		checkPair(t, c[0], c[1])
		checkPair(t, c[1], c[0])
	}

	r := rand.New(rand.NewSource(2015))
	point := func() geo.Coord { return geo.Coord{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180} }
	for i := 0; i < 1_000_000; i++ {
		a := point()
		b := point()
		switch i % 8 {
		case 5: // near the antipode, from metres to a degree off
			off := math.Pow(10, -12*r.Float64())
			b = geo.Coord{Lat: -a.Lat + off*(r.Float64()-0.5), Lon: a.Lon + 180 + off*(r.Float64()-0.5)}
			if b.Lon > 180 {
				b.Lon -= 360
			}
		case 6: // near each other
			b = geo.Coord{Lat: a.Lat + 1e-6*(r.Float64()-0.5), Lon: a.Lon + 1e-6*(r.Float64()-0.5)}
		}
		if !b.Valid() {
			continue
		}
		if !checkPair(t, a, b) {
			return
		}
	}

	db := cities.Default()
	for _, pl := range []*platform.Platform{platform.PlanetLab(db), platform.RIPEAtlas(db)} {
		vps := pl.VPs()
		for _, vp := range vps {
			for _, c := range db.All() {
				if !checkPair(t, vp.Loc, c.Loc) {
					return
				}
			}
			if !checkPair(t, vp.Loc, vps[0].Loc) {
				return
			}
		}
	}
}

// FuzzPointDistance lets the fuzzer look for a pair of coordinates on which
// the kernel and the six-call reference differ by a bit.
func FuzzPointDistance(f *testing.F) {
	for _, c := range pointDistanceCorners {
		f.Add(c[0].Lat, c[0].Lon, c[1].Lat, c[1].Lon)
	}
	f.Add(48.8566, 2.3522, 35.6762, 139.6503)
	f.Fuzz(func(t *testing.T, lat1, lon1, lat2, lon2 float64) {
		a, b := geo.Coord{Lat: lat1, Lon: lon1}, geo.Coord{Lat: lat2, Lon: lon2}
		if !a.Valid() || !b.Valid() {
			t.Skip()
		}
		checkPair(t, a, b)
	})
}
