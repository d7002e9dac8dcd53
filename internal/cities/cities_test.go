package cities

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"anycastmap/internal/geo"
)

// TestDefaultShared holds Default to one table per process: concurrent
// first callers get the same *DB (run it under -race), and that table is
// the one a fresh build of the embedded list gives. It is the first test
// of the package, so its callers race the table's build.
func TestDefaultShared(t *testing.T) {
	const n = 8
	got := make([]*DB, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = Default()
		}()
	}
	wg.Wait()
	for g, db := range got {
		if db != got[0] {
			t.Fatalf("caller %d got table %p, caller 0 %p", g, db, got[0])
		}
	}
	fresh := New(append(append([]City(nil), worldCities...), moreCities...))
	if !reflect.DeepEqual(got[0], fresh) {
		t.Error("the shared table differs from a fresh build of the embedded list")
	}
}

func TestDefaultDatabaseSanity(t *testing.T) {
	db := Default()
	if db.Len() < 300 {
		t.Fatalf("embedded database has %d cities, want >= 300", db.Len())
	}
	if got := len(db.Countries()); got < 80 {
		t.Errorf("embedded database covers %d countries, want >= 80", got)
	}
	for _, c := range db.All() {
		if !c.Loc.Valid() {
			t.Errorf("city %v has invalid coordinates %v", c, c.Loc)
		}
		if c.Population <= 0 {
			t.Errorf("city %v has non-positive population %d", c, c.Population)
		}
		if c.Name == "" || c.CC == "" {
			t.Errorf("city with empty name or CC: %+v", c)
		}
	}
}

func TestNoDuplicateKeys(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range append(append([]City{}, worldCities...), moreCities...) {
		if seen[c.Key()] {
			t.Errorf("duplicate city key %q", c.Key())
		}
		seen[c.Key()] = true
	}
}

func TestSortedByPopulation(t *testing.T) {
	db := Default()
	all := db.All()
	for i := 1; i < len(all); i++ {
		if all[i].Population > all[i-1].Population {
			t.Fatalf("database not sorted: %v (%d) after %v (%d)",
				all[i], all[i].Population, all[i-1], all[i-1].Population)
		}
	}
}

func TestByName(t *testing.T) {
	db := Default()
	c, ok := db.ByName("Paris", "FR")
	if !ok {
		t.Fatal("Paris,FR not found")
	}
	if c.Population < 1e6 {
		t.Errorf("Paris population %d seems wrong", c.Population)
	}
	// Case insensitivity.
	if _, ok := db.ByName("pArIs", "fr"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := db.ByName("Atlantis", "XX"); ok {
		t.Error("nonexistent city found")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName did not panic for missing city")
		}
	}()
	Default().MustByName("Atlantis", "XX")
}

func TestPaperCitiesPresent(t *testing.T) {
	// Cities that the paper's anecdotes depend on.
	db := Default()
	for _, nc := range [][2]string{
		{"Ashburn", "US"}, {"Philadelphia", "US"}, {"Amsterdam", "NL"},
		{"Frankfurt", "DE"}, {"London", "GB"}, {"Singapore", "SG"},
		{"Tokyo", "JP"}, {"Sydney", "AU"}, {"Stockholm", "SE"},
	} {
		if _, ok := db.ByName(nc[0], nc[1]); !ok {
			t.Errorf("%s,%s missing from database", nc[0], nc[1])
		}
	}
}

func TestPhiladelphiaAshburnBias(t *testing.T) {
	// The paper's OpenDNS misclassification (Sec 3.4): Philadelphia is ~33x
	// more populated than Ashburn and ~260 km away, so the population-biased
	// classifier picks Philadelphia for a disk containing both.
	db := Default()
	ash := db.MustByName("Ashburn", "US")
	phi := db.MustByName("Philadelphia", "US")
	if phi.Population < 20*ash.Population {
		t.Errorf("Philadelphia/Ashburn population ratio = %.1f, want > 20",
			float64(phi.Population)/float64(ash.Population))
	}
	d := geo.DistanceKm(ash.Loc, phi.Loc)
	if d < 150 || d > 350 {
		t.Errorf("Ashburn-Philadelphia distance = %.0f km, want ~220-260", d)
	}
	disk := geo.Disk{Center: ash.Loc, RadiusKm: 300}
	got, ok := db.LargestInDisk(disk)
	if !ok || got.Name != "Philadelphia" {
		t.Errorf("LargestInDisk(300km around Ashburn) = %v, want Philadelphia", got)
	}
}

func TestInDisk(t *testing.T) {
	db := Default()
	paris := db.MustByName("Paris", "FR")
	got := db.InDisk(geo.Disk{Center: paris.Loc, RadiusKm: 400})
	if len(got) < 3 {
		t.Fatalf("only %d cities within 400km of Paris, want several", len(got))
	}
	// Must include Paris itself, Brussels, London.
	names := make(map[string]bool)
	for _, c := range got {
		names[c.Name] = true
	}
	for _, want := range []string{"Paris", "Brussels", "London"} {
		if !names[want] {
			t.Errorf("%s not within 400km of Paris; got %v", want, names)
		}
	}
	// Decreasing population order.
	for i := 1; i < len(got); i++ {
		if got[i].Population > got[i-1].Population {
			t.Errorf("InDisk result not sorted by population")
		}
	}
}

func TestInDiskEmpty(t *testing.T) {
	db := Default()
	// Middle of the South Pacific.
	got := db.InDisk(geo.Disk{Center: geo.Coord{Lat: -45, Lon: -130}, RadiusKm: 500})
	if len(got) != 0 {
		t.Errorf("expected no cities in the South Pacific, got %v", got)
	}
	if _, ok := db.LargestInDisk(geo.Disk{Center: geo.Coord{Lat: -45, Lon: -130}, RadiusKm: 500}); ok {
		t.Error("LargestInDisk found a city in the empty ocean")
	}
}

func TestLargestInDiskMatchesInDisk(t *testing.T) {
	db := Default()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		d := geo.Disk{
			Center:   geo.Coord{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180},
			RadiusKm: r.Float64() * 3000,
		}
		in := db.InDisk(d)
		largest, ok := db.LargestInDisk(d)
		if ok != (len(in) > 0) {
			t.Fatalf("LargestInDisk ok=%v but InDisk returned %d cities", ok, len(in))
		}
		if ok && largest != in[0] {
			t.Fatalf("LargestInDisk = %v but InDisk[0] = %v", largest, in[0])
		}
	}
}

func TestFilter(t *testing.T) {
	db := Default()
	us := db.Filter(func(c City) bool { return c.CC == "US" })
	if us.Len() == 0 || us.Len() >= db.Len() {
		t.Fatalf("US filter returned %d of %d cities", us.Len(), db.Len())
	}
	for _, c := range us.All() {
		if c.CC != "US" {
			t.Errorf("filter leaked %v", c)
		}
	}
}

func TestInDiskContainment(t *testing.T) {
	// Property: every city reported in a disk is actually within the radius.
	db := Default()
	f := func(lat, lon, r float64) bool {
		d := geo.Disk{
			Center:   geo.Coord{Lat: clamp(lat, 90), Lon: clamp(lon, 180)},
			RadiusKm: clamp(r, 10000) + 10000, // 0..20000
		}
		for _, c := range db.InDisk(d) {
			if geo.DistanceKm(d.Center, c.Loc) > d.RadiusKm+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func clamp(v, lim float64) float64 {
	if v != v || v > 1e300 || v < -1e300 { // NaN or huge
		return 0
	}
	for v > lim {
		v -= 2 * lim
	}
	for v < -lim {
		v += 2 * lim
	}
	return v
}

func BenchmarkLargestInDisk(b *testing.B) {
	db := Default()
	d := geo.Disk{Center: geo.Coord{Lat: 48.85, Lon: 2.35}, RadiusKm: 800}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.LargestInDisk(d)
	}
}
