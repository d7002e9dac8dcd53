package netsim

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"anycastmap/internal/asdb"
	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// testConfig returns a small, fast world configuration for tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Unicast24s = 4000
	return cfg
}

func testWorld(t *testing.T) *World {
	t.Helper()
	return New(testConfig())
}

func TestWorldInventory(t *testing.T) {
	w := testWorld(t)
	if got := len(w.Deployments()); got != asdb.TotalIP24s {
		t.Errorf("world has %d anycast /24s, want %d", got, asdb.TotalIP24s)
	}
	if got := w.NumPrefixes(); got != asdb.TotalIP24s+4000 {
		t.Errorf("NumPrefixes = %d", got)
	}
	// Per-AS deployment counts match the registry.
	for _, as := range w.Registry.All() {
		if got := len(w.DeploymentsByASN(as.ASN)); got != as.IP24s {
			t.Errorf("%v has %d deployments, want %d", as, got, as.IP24s)
		}
	}
}

func TestDeploymentShape(t *testing.T) {
	w := testWorld(t)
	for _, d := range w.Deployments() {
		if len(d.Replicas) < 2 {
			t.Fatalf("%v has %d replicas; anycast needs at least 2", d, len(d.Replicas))
		}
		if d.Density <= 0 || d.Density > 1 {
			t.Fatalf("%v has density %v", d, d.Density)
		}
		seen := map[string]bool{}
		for _, r := range d.Replicas {
			if !r.Loc.Valid() {
				t.Fatalf("%v replica %d has invalid location", d, r.ID)
			}
			if geo.DistanceKm(r.Loc, r.City.Loc) > 20 {
				t.Fatalf("%v replica %d placed too far from its city", d, r.ID)
			}
			if seen[r.City.Key()] {
				t.Fatalf("%v has two replicas in %v", d, r.City)
			}
			seen[r.City.Key()] = true
		}
	}
}

func TestGroundTruthLookups(t *testing.T) {
	w := testWorld(t)
	d := w.Deployments()[0]
	if !w.IsAnycast(d.Prefix) {
		t.Error("IsAnycast false for a deployment prefix")
	}
	got, ok := w.Deployment(d.Prefix)
	if !ok || got != d {
		t.Error("Deployment lookup failed")
	}
	if asn, ok := w.ASNOf(d.Prefix); !ok || asn != d.ASN {
		t.Errorf("ASNOf = %d,%v want %d", asn, ok, d.ASN)
	}
	// A unicast prefix.
	up := w.unicastPrefixes()[0]
	if w.IsAnycast(up) {
		t.Error("unicast prefix reported as anycast")
	}
	if _, ok := w.ASNOf(up); !ok {
		t.Error("unicast prefix has no origin AS")
	}
	if _, ok := w.ASNOf(Prefix24(1)); ok {
		t.Error("unallocated prefix should have no AS")
	}
}

func TestDeploymentSizeCalibration(t *testing.T) {
	w := testWorld(t)
	// With the default calibration (DeploymentInflation 1.0 plus the
	// ~0.9 per-prefix subset), true deployment sizes sit close to the
	// paper's measured means: our synthetic PlanetLab covers the
	// datacenter cities better than the real one did, so measured ~= true
	// is the right operating point (see DESIGN.md).
	cf := w.Registry.MustByName("CLOUDFLARENET,US")
	ds := w.DeploymentsByASN(cf.ASN)
	total := 0
	for _, d := range ds {
		total += len(d.Replicas)
	}
	mean := float64(total) / float64(len(ds))
	lo := 0.8 * float64(cf.PaperMeanReplicas)
	hi := 1.3 * float64(cf.PaperMeanReplicas)
	if mean < lo || mean > hi {
		t.Errorf("CloudFlare true mean replicas %.1f outside [%.1f, %.1f]", mean, lo, hi)
	}
}

func TestRepresentative(t *testing.T) {
	w := testWorld(t)
	seenDead := false
	w.Prefixes(func(p Prefix24) {
		rep, everAlive := w.Representative(p)
		if rep.Prefix() != p {
			t.Fatalf("representative %v outside its prefix %v", rep, p)
		}
		if !everAlive {
			seenDead = true
		}
	})
	if !seenDead {
		t.Error("some hitlist entries should have negative liveness scores")
	}
	if _, ok := w.lookup(Prefix24(7)); ok {
		t.Fatal("test assumes prefix 7 unallocated")
	}
	if _, alive := w.Representative(Prefix24(7)); alive {
		t.Error("unallocated prefix should not be alive")
	}
}

func TestDensityExtremes(t *testing.T) {
	w := testWorld(t)
	cf := w.Registry.MustByName("CLOUDFLARENET,US")
	gg := w.Registry.MustByName("GOOGLE,US")
	countAlive := func(d *Deployment) int {
		n := 0
		for b := 1; b < 255; b++ {
			if w.HostAlive(d.Prefix.Host(byte(b))) {
				n++
			}
		}
		return n
	}
	cfAlive := countAlive(w.DeploymentsByASN(cf.ASN)[0])
	ggAlive := countAlive(w.DeploymentsByASN(gg.ASN)[0])
	if cfAlive < 240 {
		t.Errorf("CloudFlare /24 has %d alive hosts, want nearly all (Sec. 4.2)", cfAlive)
	}
	if ggAlive > 12 {
		t.Errorf("Google /24 has %d alive hosts, want a handful (8.8.8.8 style)", ggAlive)
	}
}

func TestWorldDeterministic(t *testing.T) {
	a := New(testConfig())
	b := New(testConfig())
	for i, d := range a.Deployments() {
		e := b.Deployments()[i]
		if d.Prefix != e.Prefix || d.ASN != e.ASN || len(d.Replicas) != len(e.Replicas) {
			t.Fatalf("deployment %d differs between identical worlds", i)
		}
		for j := range d.Replicas {
			if d.Replicas[j] != e.Replicas[j] {
				t.Fatalf("replica %d/%d differs", i, j)
			}
		}
	}
}

func TestAnycastScattered(t *testing.T) {
	// The anycast needles must be spread through the haystack, not
	// clustered at the start of the space.
	w := testWorld(t)
	firstQuarter := 0
	total := w.NumPrefixes()
	for _, d := range w.Deployments() {
		if int(d.Prefix-basePrefix) < total/4 {
			firstQuarter++
		}
	}
	frac := float64(firstQuarter) / float64(len(w.Deployments()))
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("%.2f of anycast prefixes in the first quarter of the space, want ~0.25", frac)
	}
}

func TestCityDiversityOfDeployments(t *testing.T) {
	// Fig. 10: replicas spread over ~77 cities in ~38 countries.
	w := testWorld(t)
	citySet := map[string]bool{}
	ccSet := map[string]bool{}
	for _, d := range w.Deployments() {
		for _, r := range d.Replicas {
			citySet[r.City.Key()] = true
			ccSet[r.City.CC] = true
		}
	}
	if len(citySet) < 60 {
		t.Errorf("deployments span %d cities, want >= 60", len(citySet))
	}
	if len(ccSet) < 30 {
		t.Errorf("deployments span %d countries, want >= 30", len(ccSet))
	}
}

func TestUnicastClassFractions(t *testing.T) {
	w := testWorld(t)
	var resp, silent, grey int
	for _, h := range w.unicast {
		switch h.class {
		case classResponsive:
			resp++
		case classSilent:
			silent++
		default:
			grey++
		}
	}
	n := float64(len(w.unicast))
	if f := float64(resp) / n; f < 0.38 || f > 0.45 {
		t.Errorf("responsive fraction = %.3f, want ~0.415 (4.4M of 10.6M)", f)
	}
	if f := float64(grey) / n; f < 0.008 || f > 0.025 {
		t.Errorf("greylistable fraction = %.3f, want ~0.0145", f)
	}
	if silent == 0 {
		t.Error("no silent hosts")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New should panic with Unicast24s <= 0")
		}
	}()
	New(Config{})
}

func pickVP(t *testing.T) platform.VP {
	t.Helper()
	return platform.PlanetLab(cities.Default()).VPs()[0]
}

func TestEvolve(t *testing.T) {
	w0 := testWorld(t)
	w1 := w0.Evolve(1)
	if w1.Config().Epoch != 1 {
		t.Fatal("epoch not advanced")
	}
	// Prefix allocation and the unicast background are stable in time.
	if w1.NumPrefixes() != w0.NumPrefixes() {
		t.Fatal("prefix space changed across epochs")
	}
	u1 := w1.unicastPrefixes()
	for i, p := range w0.unicastPrefixes()[:500] {
		if u1[i] != p {
			t.Fatal("unicast allocation changed across epochs")
		}
		if w0.unicast[i] != w1.unicast[i] {
			t.Fatal("unicast host changed across epochs")
		}
	}
	if !slices.Equal(w0.hostSites, w1.hostSites) {
		t.Fatal("unicast host sites changed across epochs")
	}
	// Deployments keep their prefixes; footprints drift, mostly upward,
	// and grown deployments keep their previous sites.
	total0, total1, kept, base := 0, 0, 0, 0
	for i, d0 := range w0.Deployments() {
		d1 := w1.Deployments()[i]
		if d0.Prefix != d1.Prefix || d0.ASN != d1.ASN {
			t.Fatal("deployment identity changed across epochs")
		}
		total0 += len(d0.Replicas)
		total1 += len(d1.Replicas)
		newCities := map[string]bool{}
		for _, r := range d1.Replicas {
			newCities[r.City.Key()] = true
		}
		for _, r := range d0.Replicas {
			base++
			if newCities[r.City.Key()] {
				kept++
			}
		}
	}
	if total1 <= total0 {
		t.Errorf("landscape shrank: %d -> %d replicas", total0, total1)
	}
	if growth := float64(total1-total0) / float64(total0); growth > 0.30 {
		t.Errorf("landscape grew %.0f%% in one epoch; drift should be small", 100*growth)
	}
	if continuity := float64(kept) / float64(base); continuity < 0.80 {
		t.Errorf("only %.0f%% of replica sites survived one epoch", 100*continuity)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	good.Unicast24s = 100
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{}, // zero targets
		func() Config { c := good; c.Unicast24s = 1 << 24; return c }(),
		func() Config { c := good; c.ResponsiveFraction = 1.5; return c }(),
		func() Config { c := good; c.ResponsiveFraction = 0.99; c.AdminFilteredFraction = 0.5; return c }(),
		func() Config { c := good; c.StretchBase = 0.5; return c }(),
		func() Config { c := good; c.JitterMs = -1; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// NaN fails no `v < lo || v > hi` test, so every bound is written to fail
// it: each float parameter set to NaN or an infinity is refused. A NaN
// StretchBase would break the speed-of-light invariant, and netsim.New
// panics only on what Validate refuses.
func TestConfigValidateRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		forEachFloat(DefaultConfig(), v, func(name string, c Config) {
			if err := c.Validate(); err == nil {
				t.Errorf("Config.%s = %v accepted", name, v)
			}
		})
		forEachFloat(FaultConfig{}, v, func(name string, c FaultConfig) {
			if err := c.Validate(); err == nil {
				t.Errorf("FaultConfig.%s = %v accepted", name, v)
			}
		})
	}
}

// forEachFloat calls check with base's name and a copy of base whose one
// float64 field of that name is v, once per float64 field.
func forEachFloat[C any](base C, v float64, check func(string, C)) {
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Float64 {
			c := base
			reflect.ValueOf(&c).Elem().Field(i).SetFloat(v)
			check(typ.Field(i).Name, c)
		}
	}
}

// TestTopCandsMatchesSort holds the replica draw's selection to the sort it
// replaced: over random candidate lists whose keys come from a few values
// (ties everywhere) or many (ties rare), and every n, topCands returns the
// first n of slices.SortFunc by key descending - the same candidates in the
// same order, equal keys included.
func TestTopCandsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4000; trial++ {
		m := 1 + rng.Intn(100)
		cands := make([]replicaCand, m)
		distinct := 1 + rng.Intn(4*m)
		for i := range cands {
			cands[i] = replicaCand{idx: i, key: float64(rng.Intn(distinct))}
		}
		n := rng.Intn(m + 3)
		want := slices.Clone(cands)
		slices.SortFunc(want, func(a, b replicaCand) int { return cmp.Compare(b.key, a.key) })
		want = want[:min(n, m)]
		if got := topCands(nil, slices.Clone(cands), n); !slices.Equal(got, want) {
			t.Fatalf("m=%d n=%d keys<%d: topCands %v, sort %v", m, n, distinct, got, want)
		}
	}
}
