package geo_test

import (
	"math"
	"math/rand"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// TestTriangleDefectBelowMargin pins the precondition of the detection
// split scan (internal/core/certificate.go): the amount by which computed
// great-circle distances break the triangle inequality,
// d(a,c) - d(a,b) - d(b,c), stays below a thousandth of ContainMarginKm —
// over every triple of vantage points of both platforms, whose distance
// matrix the census scans, and for arbitrary points where DistanceKm is
// at its worst: a and c within metres of antipodal, where the distance is
// quantised in steps of a tenth of a metre. The scan also reads d(a,b) where
// the pair scan it replaced read d(b,a), so the two must be the same bits.
func TestTriangleDefectBelowMargin(t *testing.T) {
	const limit = geo.ContainMarginKm / 1000
	db := cities.Default()
	for _, pl := range []*platform.Platform{platform.PlanetLab(db), platform.RIPEAtlas(db)} {
		vps := pl.VPs()
		n := len(vps)
		km := make([]float64, n*n)
		for a := range vps {
			for b := range vps {
				km[a*n+b] = geo.DistanceKm(vps[a].Loc, vps[b].Loc)
			}
		}
		worst := math.Inf(-1)
		for a := 0; a < n; a++ {
			for c := 0; c < a; c++ {
				if km[a*n+c] != km[c*n+a] {
					t.Fatalf("%s: DistanceKm(%v, %v) is not symmetric bit for bit", pl.Name(), vps[a].Loc, vps[c].Loc)
				}
				ac, fromA, fromC := km[a*n+c], km[a*n:(a+1)*n], km[c*n:(c+1)*n]
				for b, ab := range fromA {
					if d := ac - ab - fromC[b]; d > worst {
						worst = d
					}
				}
			}
		}
		t.Logf("%s: %d vantage points, worst triangle defect %.3g km", pl.Name(), n, worst)
		if worst >= limit {
			t.Errorf("%s: triangle defect %g km, want below %g", pl.Name(), worst, limit)
		}
	}

	r := rand.New(rand.NewSource(1))
	point := func() geo.Coord { return geo.Coord{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180} }
	worst := math.Inf(-1)
	for trial := 0; trial < 300_000; trial++ {
		a := point()
		off := math.Pow(10, -12*r.Float64()) // degrees off the antipode, 1e-12 to 1
		c := geo.Coord{Lat: -a.Lat + off*(r.Float64()-0.5), Lon: a.Lon + 180 + off*(r.Float64()-0.5)}
		if c.Lon > 180 {
			c.Lon -= 360
		}
		if !c.Valid() {
			continue
		}
		b := geo.Midpoint(a, c)
		if trial%2 == 0 {
			b = geo.Interpolate(a, point(), r.Float64())
		}
		worst = max(worst, geo.DistanceKm(a, c)-geo.DistanceKm(a, b)-geo.DistanceKm(b, c))
	}
	t.Logf("near-antipodal pairs: worst triangle defect %.3g km", worst)
	if worst >= limit {
		t.Errorf("near-antipodal triangle defect %g km, want below %g", worst, limit)
	}
}
