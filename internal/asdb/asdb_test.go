package asdb

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

func TestTop100HasExactlyHundredEntries(t *testing.T) {
	if len(top100) != 100 {
		t.Fatalf("top100 table has %d entries, want 100", len(top100))
	}
}

func TestDefaultTotals(t *testing.T) {
	r := Default()
	if r.Len() != TotalASes {
		t.Errorf("registry has %d ASes, want %d", r.Len(), TotalASes)
	}
	if got := r.TotalFootprint(); got != TotalIP24s {
		t.Errorf("total /24 footprint = %d, want %d", got, TotalIP24s)
	}
	top := 0
	for _, a := range r.Top100() {
		if !a.Top100 {
			t.Errorf("%v in Top100() but not flagged", a)
		}
		top += a.IP24s
	}
	if top != Top100IP24s {
		t.Errorf("top-100 footprint = %d, want %d", top, Top100IP24s)
	}
}

// TestDeterministic builds the registry twice (Default hands out one
// shared build, so it is asked for a fresh one) and holds Default to it.
func TestDeterministic(t *testing.T) {
	a, b := buildDefault(), buildDefault()
	if a.Len() != b.Len() {
		t.Fatal("two registry builds differ in size")
	}
	for i := range a.All() {
		if a.All()[i] != b.All()[i] {
			t.Fatalf("registry not deterministic at index %d: %+v vs %+v", i, a.All()[i], b.All()[i])
		}
	}
	if !reflect.DeepEqual(Default(), a) {
		t.Error("the shared registry differs from a fresh build")
	}
}

// TestDefaultShared holds Default to one registry per process: concurrent
// callers get the same *Registry (run it under -race).
func TestDefaultShared(t *testing.T) {
	const n = 8
	got := make([]*Registry, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = Default()
		}()
	}
	wg.Wait()
	for g, r := range got {
		if r != got[0] {
			t.Fatalf("caller %d got registry %p, caller 0 %p", g, r, got[0])
		}
	}
}

func TestNoDuplicateASNs(t *testing.T) {
	// Default panics on duplicates; also verify lookup consistency.
	r := Default()
	for _, a := range r.All() {
		got, ok := r.ByASN(a.ASN)
		if !ok || got.Name != a.Name {
			t.Fatalf("ByASN(%d) = %v,%v want %v", a.ASN, got, ok, a)
		}
	}
}

func TestEveryASHasFootprint(t *testing.T) {
	for _, a := range Default().All() {
		if a.IP24s < 1 {
			t.Errorf("%v has no anycast /24", a)
		}
		if a.PaperMeanReplicas < 2 {
			t.Errorf("%v has PaperMeanReplicas %d < 2 (anycast needs >= 2)", a, a.PaperMeanReplicas)
		}
		if a.Top100 && a.PaperMeanReplicas < 5 {
			t.Errorf("top-100 AS %v has fewer than 5 mean replicas", a)
		}
		if !a.Top100 && a.PaperMeanReplicas >= 5 {
			t.Errorf("tail AS %v has %d mean replicas, should be < 5", a, a.PaperMeanReplicas)
		}
		if a.Name == "" || a.CC == "" {
			t.Errorf("AS %d missing name or CC", a.ASN)
		}
	}
}

func TestNamedDeployments(t *testing.T) {
	// The deployments the paper calls out explicitly (Fig. 13, Sec. 4.2).
	r := Default()
	cases := []struct {
		name  string
		ip24s int
	}{
		{"CLOUDFLARENET,US", 328},
		{"GOOGLE,US", 102},
		{"EDGECAST,US", 37},
		{"PROLEXIC,US", 21},
		{"APPLE-ENGINEERING,US", 6},
		{"TWITTER-NETWORK,US", 3},
		{"LEVEL3,US", 2},
		{"LINKEDIN,US", 1},
	}
	for _, c := range cases {
		a, ok := r.ByName(c.name)
		if !ok {
			t.Errorf("%s missing from registry", c.name)
			continue
		}
		if a.IP24s != c.ip24s {
			t.Errorf("%s has %d /24s, want %d", c.name, a.IP24s, c.ip24s)
		}
	}
}

func TestCloudFlareIsLargestFootprint(t *testing.T) {
	r := Default()
	cf := r.MustByName("CLOUDFLARENET,US")
	for _, a := range r.All() {
		if a.ASN != cf.ASN && a.IP24s >= cf.IP24s {
			t.Errorf("%v footprint %d >= CloudFlare %d", a, a.IP24s, cf.IP24s)
		}
	}
}

func TestHalfHaveSinglePrefix(t *testing.T) {
	// Fig. 13: about half of the ASes operate exactly one anycast /24.
	r := Default()
	ones := 0
	tenPlus := 0
	for _, a := range r.All() {
		if a.IP24s == 1 {
			ones++
		}
		if a.IP24s >= 10 {
			tenPlus++
		}
	}
	frac := float64(ones) / float64(r.Len())
	if frac < 0.32 || frac > 0.62 {
		t.Errorf("fraction of single-/24 ASes = %.2f, want ~0.5", frac)
	}
	frac10 := float64(tenPlus) / float64(r.Len())
	if frac10 < 0.04 || frac10 > 0.20 {
		t.Errorf("fraction of ASes with >=10 /24s = %.2f, want ~0.10", frac10)
	}
}

func TestCAIDATop100(t *testing.T) {
	// Fig. 10: 8 census ASes are in the CAIDA top-100, Level3 at rank 1.
	var in []AS
	for _, a := range Default().All() {
		if a.CAIDARank > 0 && a.CAIDARank <= 100 {
			in = append(in, a)
		}
	}
	if len(in) != 8 {
		t.Fatalf("CAIDA top-100 intersection has %d ASes, want 8", len(in))
	}
	first := slices.MinFunc(in, func(a, b AS) int { return a.CAIDARank - b.CAIDARank })
	if first.Name != "LEVEL3,US" || first.CAIDARank != 1 {
		t.Errorf("best-ranked census AS = %v (rank %d), want LEVEL3,US at 1", first, first.CAIDARank)
	}
}

func TestAlexaHosts(t *testing.T) {
	// Sec. 4.1: 15 ASes serve Alexa top-100k sites; CloudFlare leads with 188.
	var hosts []AS
	for _, a := range Default().All() {
		if a.AlexaSites > 0 {
			hosts = append(hosts, a)
		}
	}
	if len(hosts) != 15 {
		t.Fatalf("Alexa hosts = %d ASes, want 15", len(hosts))
	}
	top := slices.MaxFunc(hosts, func(a, b AS) int { return a.AlexaSites - b.AlexaSites })
	if top.Name != "CLOUDFLARENET,US" || top.AlexaSites != 188 {
		t.Errorf("largest Alexa host = %v (%d sites), want CloudFlare with 188", top, top.AlexaSites)
	}
}

func TestCategoryString(t *testing.T) {
	if CatDNS.String() != "DNS" {
		t.Error("CatDNS.String() != DNS")
	}
	if Category(99).String() == "" {
		t.Error("unknown category should still stringify")
	}
}

func TestCoarseMapping(t *testing.T) {
	cases := map[Category]string{
		CatDNS:               "DNS",
		CatCDN:               "CDN",
		CatCloud:             "Cloud",
		CatCloudMessaging:    "Cloud",
		CatISP:               "ISP",
		CatISPTier1:          "ISP",
		CatBackbone:          "ISP",
		CatSecurity:          "Security",
		CatSocialNetwork:     "Social",
		CatUnknown:           "Unknown",
		CatWebPortal:         "Other",
		CatBlogging:          "Other",
		CatVideoConferencing: "Other",
	}
	for cat, want := range cases {
		if got := cat.Coarse(); got != want {
			t.Errorf("%v.Coarse() = %q, want %q", cat, got, want)
		}
	}
}

func TestCategoryBreakdownDNSShare(t *testing.T) {
	// Fig. 11: DNS represents about one third of anycast ASes (top-100).
	r := Default()
	bd := CategoryBreakdown(r.Top100())
	if bd["DNS"] < 0.25 || bd["DNS"] > 0.45 {
		t.Errorf("DNS share of top-100 = %.2f, want ~1/3", bd["DNS"])
	}
	// Shares sum to 1.
	var sum float64
	for _, v := range bd {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("breakdown sums to %v", sum)
	}
	if CategoryBreakdown(nil) != nil {
		t.Error("empty breakdown should be nil")
	}
}

func TestByNameMiss(t *testing.T) {
	if _, ok := Default().ByName("NO-SUCH-AS"); ok {
		t.Error("ByName found a nonexistent AS")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName should panic on a miss")
		}
	}()
	Default().MustByName("NO-SUCH-AS")
}
