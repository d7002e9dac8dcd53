package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Well-known city coordinates used across the tests.
var (
	paris    = Coord{48.8566, 2.3522}
	london   = Coord{51.5074, -0.1278}
	nyc      = Coord{40.7128, -74.0060}
	tokyo    = Coord{35.6762, 139.6503}
	sydney   = Coord{-33.8688, 151.2093}
	ashburn  = Coord{39.0438, -77.4874}
	phila    = Coord{39.9526, -75.1652}
	northPol = Coord{90, 0}
	southPol = Coord{-90, 0}
)

func randCoord(r *rand.Rand) Coord {
	return Coord{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180}
}

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name string
		a, b Coord
		want float64 // km
		tol  float64
	}{
		{"paris-london", paris, london, 344, 10},
		{"paris-nyc", paris, nyc, 5837, 30},
		{"nyc-tokyo", nyc, tokyo, 10850, 60},
		{"london-sydney", london, sydney, 16994, 80},
		{"ashburn-philadelphia", ashburn, phila, 220, 15},
		{"poles", northPol, southPol, math.Pi * EarthRadiusKm, 1},
		{"same-point", tokyo, tokyo, 0, 1e-6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := DistanceKm(c.a, c.b)
			if math.Abs(got-c.want) > c.tol {
				t.Errorf("DistanceKm(%v,%v) = %.1f, want %.1f±%.0f", c.a, c.b, got, c.want, c.tol)
			}
		})
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceBounds(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		d := DistanceKm(a, b)
		return d >= 0 && d <= MaxSurfaceDistanceKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b, c := randCoord(r), randCoord(r), randCoord(r)
		ab := DistanceKm(a, b)
		bc := DistanceKm(b, c)
		ac := DistanceKm(a, c)
		if ac > ab+bc+1e-6 {
			t.Fatalf("triangle inequality violated: d(%v,%v)=%.3f > %.3f+%.3f", a, c, ac, ab, bc)
		}
	}
}

func TestDistanceIdentity(t *testing.T) {
	f := func(lat, lon float64) bool {
		c := Coord{clampLat(lat), clampLon(lon)}
		return DistanceKm(c, c) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 180) - 90
}

func clampLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 360) - 180
}

func TestRTTToRadius(t *testing.T) {
	// 10 ms RTT -> 5 ms one-way -> ~999.3 km at 2/3 c.
	got := RTTToRadiusKm(10 * time.Millisecond)
	want := 5 * FiberSpeedKmPerMs
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("RTTToRadiusKm(10ms) = %v, want %v", got, want)
	}
	if RTTToRadiusKm(0) != 0 {
		t.Errorf("RTTToRadiusKm(0) = %v, want 0", RTTToRadiusKm(0))
	}
}

func TestPropagationRTTRoundTrip(t *testing.T) {
	// The disk built from the physical propagation RTT between two points
	// must contain the remote point (radius == distance).
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		rtt := PropagationRTT(a, b)
		d := DiskFromRTT(a, rtt)
		return d.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiskFromRTTClampsToEarth(t *testing.T) {
	d := DiskFromRTT(paris, 10*time.Hour)
	if d.RadiusKm > MaxSurfaceDistanceKm {
		t.Errorf("radius %v exceeds max surface distance", d.RadiusKm)
	}
}

func TestDiskOverlap(t *testing.T) {
	a := Disk{Center: paris, RadiusKm: 200}
	b := Disk{Center: london, RadiusKm: 200}
	if !a.Overlaps(b) {
		t.Errorf("paris(200) and london(200) should overlap (distance ~344km)")
	}
	c := Disk{Center: london, RadiusKm: 100}
	aSmall := Disk{Center: paris, RadiusKm: 100}
	if aSmall.Overlaps(c) {
		t.Errorf("paris(100) and london(100) should not overlap")
	}
	// Overlap is symmetric.
	f := func(lat1, lon1, r1, lat2, lon2, r2 float64) bool {
		d1 := Disk{Coord{clampLat(lat1), clampLon(lon1)}, math.Abs(math.Mod(r1, 20000))}
		d2 := Disk{Coord{clampLat(lat2), clampLon(lon2)}, math.Abs(math.Mod(r2, 20000))}
		return d1.Overlaps(d2) == d2.Overlaps(d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiskContainsCenter(t *testing.T) {
	f := func(lat, lon, r float64) bool {
		d := Disk{Coord{clampLat(lat), clampLon(lon)}, math.Abs(math.Mod(r, 20000))}
		return d.Contains(d.Center)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegenerate(t *testing.T) {
	if !(Disk{paris, 0}).Degenerate() {
		t.Error("zero-radius disk should be degenerate")
	}
	if (Disk{paris, 5}).Degenerate() {
		t.Error("5km disk should not be degenerate")
	}
}

func TestDestination(t *testing.T) {
	// Travelling distance d from a point must land at distance d (any bearing).
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		start := randCoord(r)
		brg := r.Float64() * 360
		dist := r.Float64() * 5000
		end := Destination(start, brg, dist)
		if !end.Valid() {
			t.Fatalf("Destination(%v,%v,%v) = %v invalid", start, brg, dist, end)
		}
		got := DistanceKm(start, end)
		if math.Abs(got-dist) > 1 {
			t.Fatalf("Destination(%v, %v, %.1f): landed %.1f km away", start, brg, dist, got)
		}
	}
	// Zero distance is the identity.
	if Destination(paris, 123, 0) != paris {
		t.Error("Destination with 0 km should return start")
	}
}

// TestDestinationBitIdentical holds Destination, which evaluates each sine
// and cosine once, to the expression that evaluated them twice, bit for
// bit: the world's replica and host positions come out of it.
func TestDestinationBitIdentical(t *testing.T) {
	ref := func(start Coord, bearingDeg, distKm float64) Coord {
		la1, lo1, brg := deg2rad(start.Lat), deg2rad(start.Lon), deg2rad(bearingDeg)
		ad := distKm / EarthRadiusKm
		la2 := math.Asin(math.Sin(la1)*math.Cos(ad) + math.Cos(la1)*math.Sin(ad)*math.Cos(brg))
		lo2 := lo1 + math.Atan2(math.Sin(brg)*math.Sin(ad)*math.Cos(la1), math.Cos(ad)-math.Sin(la1)*math.Sin(la2))
		return Coord{Lat: rad2deg(la2), Lon: math.Mod(rad2deg(lo2)+540, 360) - 180}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		start, brg, dist := randCoord(r), r.Float64()*360, r.Float64()*120
		if i%4 == 0 {
			dist *= 100
		}
		got, want := Destination(start, brg, dist), ref(start, brg, dist)
		if math.Float64bits(got.Lat) != math.Float64bits(want.Lat) || math.Float64bits(got.Lon) != math.Float64bits(want.Lon) {
			t.Fatalf("Destination(%v, %v, %v) = %v, want %v", start, brg, dist, got, want)
		}
	}
}

func TestDestinationDueNorth(t *testing.T) {
	start := Coord{0, 0}
	end := Destination(start, 0, 111.195) // ~1 degree of latitude
	if math.Abs(end.Lat-1) > 0.01 || math.Abs(end.Lon) > 0.01 {
		t.Errorf("1 degree north of (0,0): got %v", end)
	}
}

func TestMidpoint(t *testing.T) {
	m := Midpoint(paris, london)
	dp := DistanceKm(m, paris)
	dl := DistanceKm(m, london)
	if math.Abs(dp-dl) > 1 {
		t.Errorf("midpoint not equidistant: %f vs %f", dp, dl)
	}
	if dp > DistanceKm(paris, london) {
		t.Errorf("midpoint farther than endpoints")
	}
}

func TestNewCoord(t *testing.T) {
	if _, err := NewCoord(48.85, 2.35); err != nil {
		t.Errorf("valid coordinate rejected: %v", err)
	}
	for _, bad := range [][2]float64{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}} {
		if _, err := NewCoord(bad[0], bad[1]); err == nil {
			t.Errorf("NewCoord(%v,%v) accepted invalid coordinate", bad[0], bad[1])
		}
	}
}

func TestCoordValid(t *testing.T) {
	if !(Coord{0, 0}).Valid() {
		t.Error("(0,0) should be valid")
	}
	if (Coord{math.NaN(), 0}).Valid() {
		t.Error("NaN latitude should be invalid")
	}
}

func TestSpeedConstants(t *testing.T) {
	// Sanity on the physics: fiber speed must be 2/3 of c.
	if math.Abs(FiberSpeedKmPerMs-199.86163866666666) > 1e-6 {
		t.Errorf("FiberSpeedKmPerMs = %v", FiberSpeedKmPerMs)
	}
	// ~100 km of radius per ms of RTT: a widely used rule of thumb.
	if r := RTTToRadiusKm(time.Millisecond); math.Abs(r-99.93) > 0.1 {
		t.Errorf("1ms RTT radius = %v km, want ~99.93", r)
	}
}

var sinkKm float64

func BenchmarkDistanceKm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkKm = DistanceKm(paris, tokyo)
	}
}

// BenchmarkPointDistanceKm is the same distance between prepared points:
// what a caller pays per pair once both ends are prepared.
func BenchmarkPointDistanceKm(b *testing.B) {
	p, q := Prepare(paris), Prepare(tokyo)
	for i := 0; i < b.N; i++ {
		sinkKm = PointDistanceKm(p, q)
	}
}

func BenchmarkDiskOverlaps(b *testing.B) {
	d1 := Disk{paris, 500}
	d2 := Disk{nyc, 800}
	for i := 0; i < b.N; i++ {
		d1.Overlaps(d2)
	}
}

func TestInitialBearing(t *testing.T) {
	// Due-east along the equator.
	if b := InitialBearing(Coord{0, 0}, Coord{0, 10}); math.Abs(b-90) > 0.5 {
		t.Errorf("equatorial east bearing = %v, want 90", b)
	}
	// Due north.
	if b := InitialBearing(Coord{0, 0}, Coord{10, 0}); math.Abs(b) > 0.5 && math.Abs(b-360) > 0.5 {
		t.Errorf("north bearing = %v, want 0", b)
	}
	// Bearings stay in [0, 360).
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		b := InitialBearing(randCoord(r), randCoord(r))
		if b < 0 || b >= 360 {
			t.Fatalf("bearing %v out of range", b)
		}
	}
}

func TestInterpolate(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		a, b := randCoord(r), randCoord(r)
		d := DistanceKm(a, b)
		if d < 1 || d > 15000 {
			continue // skip degenerate and near-antipodal pairs
		}
		// Endpoints.
		if got := DistanceKm(Interpolate(a, b, 0), a); got > 1 {
			t.Fatalf("Interpolate(0) is %v km from a", got)
		}
		if got := DistanceKm(Interpolate(a, b, 1), b); got > 1 {
			t.Fatalf("Interpolate(1) is %v km from b", got)
		}
		// The midpoint fraction matches Midpoint.
		if got := DistanceKm(Interpolate(a, b, 0.5), Midpoint(a, b)); got > 1 {
			t.Fatalf("Interpolate(0.5) is %v km from Midpoint", got)
		}
		// Monotone distance from a.
		frac := r.Float64()
		if got := DistanceKm(a, Interpolate(a, b, frac)); math.Abs(got-frac*d) > 1 {
			t.Fatalf("Interpolate(%v) at %v km, want %v", frac, got, frac*d)
		}
	}
	// Identical points.
	p := Coord{10, 20}
	if Interpolate(p, p, 0.5) != p {
		t.Error("Interpolate of identical points should be the point")
	}
}
