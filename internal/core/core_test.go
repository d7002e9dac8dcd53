package core

import (
	"math/rand"
	"testing"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
)

var db = cities.Default()

// synth builds a measurement from a VP location toward a host location with
// a given path stretch and access overhead.
func synth(name string, vp, host geo.Coord, stretch, overheadMs float64) Measurement {
	prop := geo.PropagationRTT(vp, host)
	rtt := time.Duration(float64(prop)*stretch) + time.Duration(overheadMs*float64(time.Millisecond))
	return Measurement{VP: name, VPLoc: vp, RTT: rtt}
}

// unicastScenario: every VP measures the same host in Frankfurt.
func unicastScenario() []Measurement {
	host := db.MustByName("Frankfurt", "DE").Loc
	vps := []string{"Paris,FR", "London,GB", "New York,US", "Tokyo,JP", "Sydney,AU", "Sao Paulo,BR", "Johannesburg,ZA", "Seattle,US"}
	var ms []Measurement
	for i, v := range vps {
		name, cc, _ := cut(v)
		c := db.MustByName(name, cc)
		ms = append(ms, synth(v, c.Loc, host, 1.1+0.1*float64(i%3), 1.5))
	}
	return ms
}

// anycastScenario: two replicas, Frankfurt and Tokyo; VPs are served by the
// nearest.
func anycastScenario() []Measurement {
	fra := db.MustByName("Frankfurt", "DE").Loc
	tyo := db.MustByName("Tokyo", "JP").Loc
	entries := []struct {
		vp   string
		host geo.Coord
	}{
		// A VP colocated with each replica keeps the smallest disk tight
		// enough for an unambiguous classification; the distant VPs'
		// larger disks overlap the collapsed points and are absorbed.
		{"Frankfurt,DE", fra}, {"Paris,FR", fra}, {"London,GB", fra}, {"Warsaw,PL", fra},
		{"Osaka,JP", tyo}, {"Seoul,KR", tyo}, {"Taipei,TW", tyo}, {"Hong Kong,HK", tyo},
	}
	var ms []Measurement
	for i, e := range entries {
		name, cc, _ := cut(e.vp)
		c := db.MustByName(name, cc)
		ms = append(ms, synth(e.vp, c.Loc, e.host, 1.1+0.05*float64(i%4), 1.2))
	}
	return ms
}

func cut(s string) (string, string, bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ',' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

func TestDetectUnicast(t *testing.T) {
	if Detect(unicastScenario()) {
		t.Error("unicast scenario detected as anycast")
	}
}

func TestDetectAnycast(t *testing.T) {
	if !Detect(anycastScenario()) {
		t.Error("two-replica scenario not detected")
	}
}

func TestDetectDegenerate(t *testing.T) {
	if Detect(nil) || Detect(unicastScenario()[:1]) {
		t.Error("fewer than two samples can never prove anycast")
	}
}

func TestAnalyzeUnicast(t *testing.T) {
	r := Analyze(db, unicastScenario(), Options{})
	if r.Anycast || r.Count() != 0 {
		t.Errorf("unicast Analyze = %+v", r)
	}
}

func TestAnalyzeTwoReplicas(t *testing.T) {
	r := Analyze(db, anycastScenario(), Options{})
	if !r.Anycast {
		t.Fatal("anycast not detected")
	}
	if r.Count() < 2 {
		t.Fatalf("enumerated %d replicas, want >= 2", r.Count())
	}
	cs := r.Cities()
	hasFra, hasTyo := false, false
	for _, c := range cs {
		if c == "frankfurt,de" {
			hasFra = true
		}
		if c == "tokyo,jp" {
			hasTyo = true
		}
	}
	if !hasFra || !hasTyo {
		t.Errorf("geolocated cities = %v, want frankfurt and tokyo", cs)
	}
}

func TestAnalyzeConservative(t *testing.T) {
	// Enumeration is a lower bound: with replicas in Paris and Brussels
	// (260 km apart) and only distant VPs, the disks overlap and the
	// deployment is undetectable - conservative, not wrong.
	par := db.MustByName("Paris", "FR").Loc
	bru := db.MustByName("Brussels", "BE").Loc
	ms := []Measurement{
		synth("New York,US", db.MustByName("New York", "US").Loc, par, 1.2, 2),
		synth("Tokyo,JP", db.MustByName("Tokyo", "JP").Loc, bru, 1.2, 2),
		synth("Sydney,AU", db.MustByName("Sydney", "AU").Loc, par, 1.2, 2),
	}
	r := Analyze(db, ms, Options{})
	if r.Anycast {
		t.Error("close replicas seen only from far away should be undetectable")
	}
}

func TestIterationIncreasesRecall(t *testing.T) {
	// Three replicas: Frankfurt, Tokyo, and New York. A VP in Chicago has
	// a moderately large disk that overlaps the New York VP's small disk;
	// collapsing New York onto its city can free other disks in later
	// iterations. At minimum, iteration must not lose replicas.
	fra := db.MustByName("Frankfurt", "DE").Loc
	tyo := db.MustByName("Tokyo", "JP").Loc
	nyc := db.MustByName("New York", "US").Loc
	ms := []Measurement{
		synth("Paris,FR", db.MustByName("Paris", "FR").Loc, fra, 1.1, 1),
		synth("Warsaw,PL", db.MustByName("Warsaw", "PL").Loc, fra, 1.1, 1),
		synth("Osaka,JP", db.MustByName("Osaka", "JP").Loc, tyo, 1.1, 1),
		synth("Seoul,KR", db.MustByName("Seoul", "KR").Loc, tyo, 1.1, 1),
		synth("Boston,US", db.MustByName("Boston", "US").Loc, nyc, 1.1, 1),
		synth("Chicago,US", db.MustByName("Chicago", "US").Loc, nyc, 1.9, 6),
	}
	r := Analyze(db, ms, Options{})
	if !r.Anycast || r.Count() < 3 {
		t.Fatalf("enumerated %d replicas, want >= 3 (got %v)", r.Count(), r.Replicas)
	}
	if r.Iterations < 1 {
		t.Error("iteration count not reported")
	}
}

func TestPopulationBiasMisclassification(t *testing.T) {
	// The paper's OpenDNS anecdote: a replica in Ashburn probed from a VP
	// ~2.6ms away gets classified to Philadelphia, the largest city in
	// the disk.
	ash := db.MustByName("Ashburn", "US").Loc
	tyo := db.MustByName("Tokyo", "JP").Loc
	ms := []Measurement{
		// VP near Washington DC measuring the Ashburn replica: a ~2.5ms
		// RTT maps to a ~250km disk that contains Philadelphia but not
		// New York.
		synth("Washington,US", db.MustByName("Washington", "US").Loc, ash, 1.2, 2.0),
		synth("Osaka,JP", db.MustByName("Osaka", "JP").Loc, tyo, 1.1, 1),
		synth("Seoul,KR", db.MustByName("Seoul", "KR").Loc, tyo, 1.1, 1),
	}
	r := Analyze(db, ms, Options{})
	if !r.Anycast {
		t.Fatal("not detected")
	}
	for _, rep := range r.Replicas {
		if rep.VP == "Washington,US" {
			if !rep.Located {
				t.Fatal("US replica not located")
			}
			if rep.City.Name != "Philadelphia" {
				t.Errorf("US replica classified to %v, the population bias predicts Philadelphia", rep.City)
			}
		}
	}
}

func TestMISGreedyIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		disks := randomDisks(r, 2+r.Intn(40))
		mis := MISGreedy(disks)
		if len(mis) < 1 {
			t.Fatal("MIS of a nonempty instance must be nonempty")
		}
		for a := 0; a < len(mis); a++ {
			for b := a + 1; b < len(mis); b++ {
				if disks[mis[a]].Overlaps(disks[mis[b]]) {
					t.Fatalf("greedy MIS not independent: disks %d and %d overlap", mis[a], mis[b])
				}
			}
		}
		// Maximality: every excluded disk conflicts with a chosen one.
		chosen := map[int]bool{}
		for _, i := range mis {
			chosen[i] = true
		}
		for i := range disks {
			if chosen[i] {
				continue
			}
			conflicts := false
			for _, j := range mis {
				if disks[i].Overlaps(disks[j]) {
					conflicts = true
					break
				}
			}
			if !conflicts {
				t.Fatalf("disk %d independent of the MIS but excluded", i)
			}
		}
	}
}

func TestMISGreedyVsBrute(t *testing.T) {
	// The greedy solution must be within the 5-approximation bound of the
	// optimum, and in practice nearly always equal (the paper reports
	// near-optimal results at a fraction of the brute-force cost).
	r := rand.New(rand.NewSource(13))
	equal, total := 0, 0
	for trial := 0; trial < 60; trial++ {
		disks := randomDisks(r, 2+r.Intn(11))
		g := len(MISGreedy(disks))
		b := len(MISBrute(disks))
		if g > b {
			t.Fatalf("greedy %d exceeds optimum %d", g, b)
		}
		if b > 5*g {
			t.Fatalf("greedy %d worse than the 5-approximation bound of optimum %d", g, b)
		}
		if g == b {
			equal++
		}
		total++
	}
	if float64(equal)/float64(total) < 0.8 {
		t.Errorf("greedy matched the optimum on only %d/%d instances", equal, total)
	}
}

func TestMISBrutePanicsOnLargeInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MISBrute should refuse > 24 disks")
		}
	}()
	r := rand.New(rand.NewSource(1))
	MISBrute(randomDisks(r, 25))
}

func TestDetectMatchesNaive(t *testing.T) {
	// The split scan must agree with the naive pairwise test on random
	// instances...
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		disks := randomDisks(r, 2+r.Intn(30))
		fast := DetectCert(disks, nil).Anycast()
		naive := false
		for i := 0; i < len(disks) && !naive; i++ {
			for j := i + 1; j < len(disks); j++ {
				if !disks[i].Overlaps(disks[j]) {
					naive = true
					break
				}
			}
		}
		if fast != naive {
			t.Fatalf("DetectCert = %v, naive = %v on %v", fast, naive, disks)
		}
	}
	// ...and with the reference scan on what a census measures: 2 to 400
	// disks centered at vantage points, radii from whole-microsecond RTTs
	// toward one host (the witness and split cases) or the nearest of a
	// few (anycast), with the vantage points' distance matrix as oracle
	// and without one.
	pool := vpPool()
	verdicts := map[CertKind]int{}
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.Intn(399)
		if trial%4 == 0 {
			n = 2 + r.Intn(6)
		}
		disks, oracle := pool.disks(r, n, 1+r.Intn(3))
		_, _, want := firstDisjointPair(disks, oracle)
		for _, dist := range []CenterDist{oracle, nil} {
			cert := DetectCert(disks, dist)
			if cert.Anycast() != want {
				t.Fatalf("trial %d, %d disks, oracle %v: DetectCert = %+v, reference scan anycast = %v",
					trial, n, dist != nil, cert, want)
			}
			if cert.Anycast() && disks[cert.I].Overlaps(disks[cert.J]) {
				t.Fatalf("trial %d: certified pair (%d, %d) overlaps", trial, cert.I, cert.J)
			}
			verdicts[cert.Kind]++
		}
	}
	for _, k := range []CertKind{CertNone, CertUnicast, CertAnycast} {
		if verdicts[k] == 0 {
			t.Errorf("no trial ended in certificate kind %d: witness, split and anycast must all be covered (%v)", k, verdicts)
		}
	}
}

func TestAnalyzeFindsAtLeastProvenPair(t *testing.T) {
	// Whenever detection succeeds, enumeration reports >= 2 replicas.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(20)
		ms := make([]Measurement, n)
		for i := range ms {
			ms[i] = Measurement{
				VP:    "vp",
				VPLoc: geo.Coord{Lat: r.Float64()*140 - 70, Lon: r.Float64()*360 - 180},
				RTT:   time.Duration(1+r.Intn(150)) * time.Millisecond,
			}
		}
		res := Analyze(db, ms, Options{})
		if res.Anycast != Detect(ms) {
			t.Fatal("Analyze and Detect disagree")
		}
		if res.Anycast && res.Count() < 2 {
			t.Fatalf("anycast proven but only %d replicas enumerated", res.Count())
		}
	}
}

func TestResultCities(t *testing.T) {
	r := Analyze(db, anycastScenario(), Options{})
	cs := r.Cities()
	for i := 1; i < len(cs); i++ {
		if cs[i] <= cs[i-1] {
			t.Error("Cities() not sorted/unique")
		}
	}
}

func TestGeoReplicaString(t *testing.T) {
	g := GeoReplica{VP: "x", Located: true, City: db.MustByName("Paris", "FR")}
	if g.String() == "" {
		t.Error("empty String()")
	}
	u := GeoReplica{VP: "y", Disk: geo.Disk{RadiusKm: 10}}
	if u.String() == "" {
		t.Error("empty String() for unlocated")
	}
}

func randomDisks(r *rand.Rand, n int) []geo.Disk {
	disks := make([]geo.Disk, n)
	for i := range disks {
		disks[i] = geo.Disk{
			Center:   geo.Coord{Lat: r.Float64()*140 - 70, Lon: r.Float64()*360 - 180},
			RadiusKm: 100 + r.Float64()*6000,
		}
	}
	return disks
}

func BenchmarkAnalyzeAnycast(b *testing.B) {
	ms := anycastScenario()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(db, ms, Options{})
	}
}
