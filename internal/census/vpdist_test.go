package census

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// freshTable swaps the process-wide distance table for an empty one of the
// given cap until the test ends, so counts do not depend on which tests ran
// before. Tests of this package do not run in parallel.
func freshTable(t *testing.T, cap int) {
	t.Helper()
	old := vpDistances
	vpDistances = &distTable{cap: cap}
	t.Cleanup(func() { vpDistances = old })
}

// checkFill fills a matrix for locs from tab and holds every cell to
// geo.DistanceKm, bit for bit.
func checkFill(t *testing.T, tab *distTable, locs []geo.Coord) {
	t.Helper()
	n := len(locs)
	dst := make([]float64, n*n)
	tab.fill(dst, locs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := geo.DistanceKm(locs[i], locs[j])
			if i == j {
				want = 0 // the diagonal is not written
			}
			if got := dst[i*n+j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("list of %d, cell (%d,%d) %v-%v: table %v (%#x), DistanceKm %v (%#x)",
					n, i, j, locs[i], locs[j], got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestDistTableBitwise walks a small-cap table through seeded random
// insertion histories - subsets, supersets, permutations, repeated
// coordinates, lists that roll the table over and lists longer than its cap
// - over a pool holding the haversine's hard places: both poles under many
// longitudes, antipodal pairs, the +-180 degree seam, signed zeros.
func TestDistTableBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	pool := []geo.Coord{
		{Lat: 90, Lon: 0}, {Lat: 90, Lon: 77}, {Lat: 90, Lon: -180}, {Lat: -90, Lon: 13}, {Lat: -90, Lon: 180},
		{Lat: 0, Lon: 180}, {Lat: 0, Lon: -180}, {Lat: 10, Lon: 180}, {Lat: 10, Lon: -180}, {Lat: 10, Lon: 179.999999},
		{Lat: 0, Lon: 0}, {Lat: math.Copysign(0, -1), Lon: 0}, {Lat: 0, Lon: math.Copysign(0, -1)},
		{Lat: 1e-200, Lon: 0}, {Lat: 48.8566, Lon: 2.3522}, {Lat: -48.8566, Lon: -177.6478},
	}
	for len(pool) < 120 {
		c := geo.Coord{Lat: 180*rng.Float64() - 90, Lon: 360*rng.Float64() - 180}
		anti := geo.Coord{Lat: -c.Lat, Lon: c.Lon - 180}
		if anti.Lon < -180 {
			anti.Lon += 360
		}
		pool = append(pool, c, anti)
	}
	draw := func(n int) []geo.Coord {
		locs := make([]geo.Coord, n)
		for i := range locs {
			locs[i] = pool[rng.Intn(len(pool))] // with repeats
		}
		return locs
	}

	tab := &distTable{cap: 64}
	var prev []geo.Coord
	for step := 0; step < 400; step++ {
		var locs []geo.Coord
		switch step % 5 {
		case 0: // anything, now and then longer than the cap
			locs = draw(rng.Intn(90))
		case 1: // a permutation of the previous list
			locs = append(locs, prev...)
			rng.Shuffle(len(locs), func(a, b int) { locs[a], locs[b] = locs[b], locs[a] })
		case 2: // a subset of it
			for _, c := range prev {
				if rng.Intn(2) == 0 {
					locs = append(locs, c)
				}
			}
		case 3: // a superset
			locs = append(append(locs, prev...), draw(rng.Intn(12))...)
		case 4: // a few points at a time, so rows of many ages share a list
			locs = append(draw(3), prev[:min(len(prev), 20)]...)
		}
		checkFill(t, tab, locs)
		if len(tab.pts) > tab.cap || len(tab.rows) != len(tab.pts) || len(tab.idx) != len(tab.pts) {
			t.Fatalf("step %d: table holds %d points, %d rows, %d keys under a cap of %d",
				step, len(tab.pts), len(tab.rows), len(tab.idx), tab.cap)
		}
		prev = locs
	}

	// The process-wide table at its real cap, whatever other tests left in it.
	for step := 0; step < 20; step++ {
		checkFill(t, vpDistances, draw(rng.Intn(len(pool))))
	}
}

// analyzeAllStats is AnalyzeAll returning the engine counters instead.
func analyzeAllStats(c *Combined) AnalyzerStats {
	a := NewAnalyzer(cities.Default(), AnalyzerConfig{})
	a.bind(c)
	a.run(nil, true)
	return a.Stats()
}

// TestPairsMeasured pins what the distance table makes an analysis cost: a
// vantage-point pair is measured by the first analysis of the process that
// holds both, and by none after it.
func TestPairsMeasured(t *testing.T) {
	freshTable(t, vpDistCap)
	all := platform.PlanetLab(cities.Default()).VPs()
	const n, k = 40, 7
	census := func(vps []platform.VP) *Combined {
		c, err := Combine(handRun(1, vps, 5, func(v, t int) int32 { return 30_000 + int32(v) }))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	measured := func(vps []platform.VP) int64 {
		return analyzeAllStats(census(vps)).PairsMeasured
	}
	pairs := func(n int) int64 { return int64(n) * int64(n-1) / 2 }

	if got := measured(all[:n]); got != pairs(n) {
		t.Fatalf("first analysis of %d VPs measured %d pairs, want %d", n, got, pairs(n))
	}
	if got := measured(all[:n]); got != 0 {
		t.Fatalf("second analysis of the same list measured %d pairs, want 0", got)
	}
	perm := append([]platform.VP(nil), all[:n]...)
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	if got := measured(perm); got != 0 {
		t.Fatalf("a permuted list measured %d pairs, want 0", got)
	}
	if got := measured(append(append([]platform.VP(nil), all[3:11]...), all[20:31]...)); got != 0 {
		t.Fatalf("a subset measured %d pairs, want 0", got)
	}
	if got, want := measured(all[:n+k]), int64(k*n)+pairs(k); got != want {
		t.Fatalf("a superset by %d VPs measured %d pairs, want k*n + k(k-1)/2 = %d", k, got, want)
	}
	// Two lists that never met: only the cross pairs are new.
	other := all[100 : 100+n]
	if got := measured(other); got != pairs(n) {
		t.Fatalf("a disjoint list measured %d pairs, want %d", got, pairs(n))
	}
	if got, want := measured(append(append([]platform.VP(nil), all[:n]...), other...)), int64(n*n); got != want {
		t.Fatalf("the union of two known lists measured %d pairs, want the %d cross pairs", got, want)
	}

	// One analyzer across Update calls: nothing on a bind over unchanged
	// vantage points, the appended ones' pairs when the list grows.
	freshTable(t, vpDistCap)
	an := NewAnalyzer(cities.Default(), AnalyzerConfig{})
	c := census(all[:n])
	an.Update(c, []int{0, 1, 2, 3, 4})
	an.Update(c, []int{2})
	if got := an.Stats().PairsMeasured; got != pairs(n) {
		t.Fatalf("two updates over one VP list measured %d pairs, want %d", got, pairs(n))
	}
	an.Update(census(all[:n+k]), []int{0, 1, 2, 3, 4})
	if got := an.Stats().PairsMeasured; got != pairs(n+k) {
		t.Fatalf("after growing by %d VPs the analyzer has measured %d pairs, want %d", k, got, pairs(n+k))
	}

	// Longer than the cap: measured directly, every time.
	freshTable(t, n-1)
	for rep := 0; rep < 2; rep++ {
		if got := measured(all[:n]); got != pairs(n) {
			t.Fatalf("rep %d over the cap measured %d pairs, want %d", rep, got, pairs(n))
		}
	}
}

// farApartCensus is a census in which every target answers every vantage
// point within 3 ms: anycast when the vantage points are far apart, unicast
// when they sit in one town.
func farApartCensus(t *testing.T, vps []platform.VP) *Combined {
	t.Helper()
	c, err := Combine(handRun(1, vps, 6, func(v, t int) int32 { return 3_000 + int32(t) }))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAnalyzerChangedVPsSameCount hands one analyzer two censuses with the
// same number of different vantage points. The distance matrix follows the
// coordinates, not the count: the second update equals a fresh AnalyzeAll.
func TestAnalyzerChangedVPsSameCount(t *testing.T) {
	const n = 6
	oneTown := make([]platform.VP, n)
	for v := range oneTown {
		oneTown[v] = platform.VP{ID: v, Name: "vp", LoadFactor: 1,
			Loc: geo.Coord{Lat: 48.85 + 0.01*float64(v), Lon: 2.35}}
	}
	spread := spreadVPs(n)
	all := []int{0, 1, 2, 3, 4, 5}
	db := cities.Default()

	an := NewAnalyzer(db, AnalyzerConfig{})
	an.Update(farApartCensus(t, oneTown), all)
	if got := an.Outcomes(); len(got) != 0 {
		t.Fatalf("vantage points in one town detected %d anycast targets, want 0", len(got))
	}
	cb := farApartCensus(t, spread)
	an.Update(cb, all)
	want := AnalyzeAll(db, cb, core.Options{}, 2, 0)
	if len(want) == 0 {
		t.Fatal("spread vantage points detected nothing; the test needs a census that tells the two sets apart")
	}
	if got := an.Outcomes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after swapping %d vantage points for %d others the analyzer reports %d anycast targets, a fresh AnalyzeAll %d",
			n, n, len(got), len(want))
	}

	// One vantage point moved, in a middle slot.
	moved := append([]platform.VP(nil), spread...)
	moved[2].Loc = oneTown[2].Loc
	cm := farApartCensus(t, moved)
	an.Update(cm, all)
	if got, want := an.Outcomes(), AnalyzeAll(db, cm, core.Options{}, 2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("after moving one vantage point the analyzer reports %d anycast targets, a fresh AnalyzeAll %d", len(got), len(want))
	}
}

// TestConcurrentAnalyzeAll runs AnalyzeAll over different subsets of one
// platform at once, against a table that starts empty and is small enough
// to start over while they run: every outcome equals its serial one.
func TestConcurrentAnalyzeAll(t *testing.T) {
	all := platform.PlanetLab(cities.Default()).VPs()
	db := cities.Default()
	const workers = 8
	censuses := make([]*Combined, workers)
	want := make([][]Outcome, workers)
	// Serial, without a table: the direct path is what AnalyzeAll always did.
	freshTable(t, 0)
	for w := range censuses {
		var vps []platform.VP
		for v := w; v < len(all); v += 2 + w%3 {
			vps = append(vps, all[v])
		}
		c, err := Combine(handRun(1, vps, 8, func(v, t int) int32 {
			if t%2 == 0 && v%(5+w) == 0 {
				return 1_500 + int32(t)
			}
			return 60_000 + int32(v*7+t)
		}))
		if err != nil {
			t.Fatal(err)
		}
		censuses[w], want[w] = c, AnalyzeAll(db, c, core.Options{}, 2, 1)
		if len(want[w]) == 0 {
			t.Fatalf("census %d detects nothing", w)
		}
	}

	freshTable(t, 200)
	got := make([][]Outcome, workers)
	var wg sync.WaitGroup
	for w := range censuses {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got[w] = AnalyzeAll(db, censuses[w], core.Options{}, 2, 1)
			}
		}(w)
	}
	wg.Wait()
	for w := range censuses {
		if !reflect.DeepEqual(got[w], want[w]) {
			t.Errorf("census %d (%d VPs): concurrent AnalyzeAll reports %d anycast targets, serial %d",
				w, len(censuses[w].VPs), len(got[w]), len(want[w]))
		}
	}
}
