// Package geo implements the spherical geometry underlying latency-based
// anycast detection: great-circle distances, the mapping from round-trip
// times to disks on the Earth's surface, and disk overlap tests.
//
// The central primitive of the paper's technique (Fig. 3 of Cicalese et al.,
// CoNEXT 2015) is the observation that a round-trip time RTT measured from a
// vantage point bounds the probed replica inside a disk centred at the
// vantage point whose radius is the distance light can travel in fiber in
// RTT/2. Two disjoint disks for the same target are a speed-of-light
// violation and therefore prove the target is anycast.
package geo

import (
	"errors"
	"fmt"
	"math"
	"time"
)

const (
	// EarthRadiusKm is the mean Earth radius used for great-circle
	// computations.
	EarthRadiusKm = 6371.0

	// SpeedOfLightKmPerMs is the speed of light in vacuum, in km per
	// millisecond.
	SpeedOfLightKmPerMs = 299.792458

	// FiberSpeedKmPerMs is the propagation speed of light in optical
	// fiber, conventionally taken as 2/3 of the speed of light in vacuum
	// (refraction index ~1.5). This is the constant used to convert
	// latency into an upper bound on geographic distance.
	FiberSpeedKmPerMs = SpeedOfLightKmPerMs * 2.0 / 3.0

	// MaxSurfaceDistanceKm is half the Earth's circumference: no two
	// points on the surface are farther apart than this.
	MaxSurfaceDistanceKm = math.Pi * EarthRadiusKm

	// OverlapEpsKm is the slack Contains and Overlaps (and the detection
	// scans that spell them out) grant to floating-point drift.
	OverlapEpsKm = 1e-9

	// ContainMarginKm is the depth at which a point counts as strictly
	// inside a disk for the detection split scan (internal/core,
	// scan.go): two disks holding one point this deep overlap
	// under the OverlapEpsKm test as long as DistanceKm breaks the
	// triangle inequality by less than twice the margin. The worst defect
	// DistanceKm shows is 2.5e-4 km, between points within metres of
	// antipodal, where the haversine's asin is ill-conditioned;
	// TestTriangleDefectBelowMargin pins it under a thousandth of this.
	ContainMarginKm = 1.0
)

// Coord is a geographic coordinate in decimal degrees.
type Coord struct {
	Lat float64 // latitude, -90..90
	Lon float64 // longitude, -180..180
}

// Valid reports whether the coordinate lies in the legal lat/lon ranges.
func (c Coord) Valid() bool {
	return c.Lat >= -90 && c.Lat <= 90 && c.Lon >= -180 && c.Lon <= 180 &&
		!math.IsNaN(c.Lat) && !math.IsNaN(c.Lon)
}

func (c Coord) String() string {
	return fmt.Sprintf("(%.4f, %.4f)", c.Lat, c.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// Point is a coordinate prepared for distance computations: latitude and
// longitude in radians and the cosine of the latitude, the three values the
// haversine needs of each endpoint. Code that measures many distances from
// or to a fixed place - a vantage point, a city, a disk centre - prepares it
// once and pays per distance only what depends on the pair.
type Point struct {
	lat, lon float64 // radians
	cosLat   float64
}

// Prepare converts a coordinate into its prepared form.
func Prepare(c Coord) Point {
	lat := deg2rad(c.Lat)
	return Point{lat: lat, lon: deg2rad(c.Lon), cosLat: math.Cos(lat)}
}

// PrepareCos is Prepare for callers that stored the cosine of c's latitude
// (Point.CosLat) beside the coordinate - 8 bytes per place instead of a
// whole Point - and want the rest, two multiplications, rebuilt on the fly.
// cosLat must be Prepare(c).CosLat().
func PrepareCos(c Coord, cosLat float64) Point {
	return Point{lat: deg2rad(c.Lat), lon: deg2rad(c.Lon), cosLat: cosLat}
}

// CosLat returns the cosine of the point's latitude, the one value of a
// Point that costs a trigonometric call to rebuild.
func (p Point) CosLat() float64 { return p.cosLat }

// PointDistanceKm returns the great-circle distance between a and b in km,
// computed with the haversine formula. It is the one distance kernel:
// DistanceKm is defined through it.
func PointDistanceKm(a, b Point) float64 {
	sLat := math.Sin((b.lat - a.lat) / 2)
	sLon := math.Sin((b.lon - a.lon) / 2)
	h := sLat*sLat + a.cosLat*b.cosLat*sLon*sLon
	// Clamp to guard against floating-point drift beyond [0,1].
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// DistanceKm returns the great-circle distance between a and b in km.
func DistanceKm(a, b Coord) float64 {
	return PointDistanceKm(Prepare(a), Prepare(b))
}

// UnitVec returns the Earth-centered unit vector of a coordinate. For a
// fixed point it is a pure function of the coordinate, so serving paths
// precompute it once: the nearest-of-N scan then costs one dot product
// per candidate instead of a haversine (two sincos and a sqrt), and the
// ordering by dot product is exactly the ordering by great-circle
// distance (larger dot = closer).
func UnitVec(c Coord) [3]float64 {
	sinLa, cosLa := math.Sincos(deg2rad(c.Lat))
	sinLo, cosLo := math.Sincos(deg2rad(c.Lon))
	return [3]float64{cosLa * cosLo, cosLa * sinLo, sinLa}
}

// VecDot is the dot product of two unit vectors: the cosine of the
// central angle between the two points.
func VecDot(a, b [3]float64) float64 {
	return a[0]*b[0] + a[1]*b[1] + a[2]*b[2]
}

// VecDistKm converts a unit-vector dot product into great-circle km.
func VecDistKm(dot float64) float64 {
	if dot > 1 {
		dot = 1
	} else if dot < -1 {
		dot = -1
	}
	return EarthRadiusKm * math.Acos(dot)
}

// PropagationRTT returns the round-trip time light in fiber needs to cover
// the great-circle distance between a and b and back. It is the physical
// lower bound for any RTT measured between the two points.
func PropagationRTT(a, b Coord) time.Duration {
	distKm := DistanceKm(a, b)
	ms := 2 * distKm / FiberSpeedKmPerMs
	// Round up: the result is a physical lower bound, so truncating to an
	// integer number of nanoseconds must never make it optimistic.
	return time.Duration(math.Ceil(ms * float64(time.Millisecond)))
}

// RTTToRadiusKm converts a measured round-trip time into the maximum
// distance the probed host can be from the vantage point: the one-way
// propagation budget RTT/2 travelled at fiber speed.
func RTTToRadiusKm(rtt time.Duration) float64 {
	ms := float64(rtt) / float64(time.Millisecond)
	return ms / 2 * FiberSpeedKmPerMs
}

// Disk is a closed disk on the Earth's surface, the geometric object a
// latency sample is mapped to.
type Disk struct {
	Center   Coord
	RadiusKm float64
}

// DiskFromRTT maps a latency sample taken at vantage point vp to the disk
// that must contain the replica which answered the probe.
func DiskFromRTT(vp Coord, rtt time.Duration) Disk {
	return Disk{Center: vp, RadiusKm: DiskRadiusKm(rtt)}
}

// DiskRadiusKm is the radius of DiskFromRTT's disk: RTTToRadiusKm clamped
// to the sphere.
func DiskRadiusKm(rtt time.Duration) float64 {
	r := RTTToRadiusKm(rtt)
	if r > MaxSurfaceDistanceKm {
		r = MaxSurfaceDistanceKm
	}
	return r
}

// Contains reports whether point p lies inside the disk (boundary included).
func (d Disk) Contains(p Coord) bool {
	return DistanceKm(d.Center, p) <= d.RadiusKm+OverlapEpsKm
}

// Overlaps reports whether the two disks intersect. Two disks on the sphere
// intersect iff the great-circle distance between their centers does not
// exceed the sum of their radii.
func (d Disk) Overlaps(o Disk) bool {
	return DistanceKm(d.Center, o.Center) <= d.RadiusKm+o.RadiusKm+OverlapEpsKm
}

// Degenerate reports whether the disk has (numerically) zero radius; disks
// are collapsed to a point once their replica has been geolocated, in the
// iterative step of the enumeration algorithm.
func (d Disk) Degenerate() bool { return d.RadiusKm <= 1e-9 }

func (d Disk) String() string {
	return fmt.Sprintf("disk[%v r=%.0fkm]", d.Center, d.RadiusKm)
}

// Destination returns the point reached by travelling distKm from start
// along the given initial bearing (degrees clockwise from north). It is used
// to synthesize host positions around city centers. It is Origin.Destination
// from a freshly prepared start: one formula.
func Destination(start Coord, bearingDeg, distKm float64) Coord {
	return PrepareOrigin(start).Destination(bearingDeg, distKm)
}

// Origin is a coordinate prepared as the start of Destination: its
// longitude in radians and the sine and cosine of its latitude, the two
// trigonometric calls of Destination that depend on the start alone. Code
// that travels from a fixed place many times - the world placing every
// unicast host around one of its cities - prepares the place once.
type Origin struct {
	c              Coord
	lon            float64 // radians
	sinLat, cosLat float64
}

// PrepareOrigin converts a coordinate into its Origin form.
func PrepareOrigin(c Coord) Origin {
	la := deg2rad(c.Lat)
	return Origin{c: c, lon: deg2rad(c.Lon), sinLat: math.Sin(la), cosLat: math.Cos(la)}
}

// Destination is geo.Destination from the prepared start.
func (o Origin) Destination(bearingDeg, distKm float64) Coord {
	if distKm == 0 {
		return o.c
	}
	brg := deg2rad(bearingDeg)
	ad := distKm / EarthRadiusKm // angular distance

	sinAd, cosAd := math.Sin(ad), math.Cos(ad)
	la2 := math.Asin(o.sinLat*cosAd + o.cosLat*sinAd*math.Cos(brg))
	lo2 := o.lon + math.Atan2(
		math.Sin(brg)*sinAd*o.cosLat,
		cosAd-o.sinLat*math.Sin(la2),
	)
	// Normalize longitude to [-180, 180).
	lon := math.Mod(rad2deg(lo2)+540, 360) - 180
	return Coord{Lat: rad2deg(la2), Lon: lon}
}

// Midpoint returns the great-circle midpoint of a and b.
func Midpoint(a, b Coord) Coord {
	la1, lo1 := deg2rad(a.Lat), deg2rad(a.Lon)
	la2, lo2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dLon := lo2 - lo1
	bx := math.Cos(la2) * math.Cos(dLon)
	by := math.Cos(la2) * math.Sin(dLon)
	lat := math.Atan2(math.Sin(la1)+math.Sin(la2),
		math.Sqrt((math.Cos(la1)+bx)*(math.Cos(la1)+bx)+by*by))
	lon := lo1 + math.Atan2(by, math.Cos(la1)+bx)
	return Coord{Lat: rad2deg(lat), Lon: math.Mod(rad2deg(lon)+540, 360) - 180}
}

// ErrInvalidCoord is returned by constructors that validate coordinates.
var ErrInvalidCoord = errors.New("geo: invalid coordinate")

// NewCoord validates and returns a coordinate.
func NewCoord(lat, lon float64) (Coord, error) {
	c := Coord{Lat: lat, Lon: lon}
	if !c.Valid() {
		return Coord{}, fmt.Errorf("%w: lat=%v lon=%v", ErrInvalidCoord, lat, lon)
	}
	return c, nil
}

// InitialBearing returns the initial great-circle bearing from a toward b,
// in degrees clockwise from north.
func InitialBearing(a, b Coord) float64 {
	la1, lo1 := deg2rad(a.Lat), deg2rad(a.Lon)
	la2, lo2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dLon := lo2 - lo1
	y := math.Sin(dLon) * math.Cos(la2)
	x := math.Cos(la1)*math.Sin(la2) - math.Sin(la1)*math.Cos(la2)*math.Cos(dLon)
	brg := rad2deg(math.Atan2(y, x))
	return math.Mod(brg+360, 360)
}

// Interpolate returns the point at fraction frac (0..1) along the great
// circle from a to b. Fractions outside [0, 1] extrapolate along the same
// circle.
func Interpolate(a, b Coord, frac float64) Coord {
	d := DistanceKm(a, b)
	if d == 0 {
		return a
	}
	return Destination(a, InitialBearing(a, b), d*frac)
}
