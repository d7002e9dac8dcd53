package bgp

import (
	"sync"
	"testing"

	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
)

var (
	once sync.Once
	w    *netsim.World
	tbl  *Table
)

func testbed(t *testing.T) (*netsim.World, *Table) {
	t.Helper()
	once.Do(func() {
		cfg := netsim.DefaultConfig()
		cfg.Unicast24s = 5000
		w = netsim.New(cfg)
		tbl = FromWorld(w)
	})
	return w, tbl
}

func TestTableCoversWorld(t *testing.T) {
	w, tbl := testbed(t)
	if tbl.Len() != w.NumPrefixes() {
		t.Errorf("table has %d routes for %d prefixes", tbl.Len(), w.NumPrefixes())
	}
}

func TestOriginASMatchesGroundTruth(t *testing.T) {
	w, tbl := testbed(t)
	for _, d := range w.Deployments()[:200] {
		asn, ok := tbl.OriginAS(d.Prefix)
		if !ok || asn != d.ASN {
			t.Fatalf("OriginAS(%v) = %d,%v want %d", d.Prefix, asn, ok, d.ASN)
		}
	}
	if _, ok := tbl.OriginAS(netsim.Prefix24(5)); ok {
		t.Error("unrouted prefix has an origin")
	}
	if tbl.Routed(netsim.Prefix24(5)) {
		t.Error("unrouted prefix reported routed")
	}
}

func TestAnycastMostlySlash24(t *testing.T) {
	// Paper [35]: 88% of anycast prefixes are announced as /24.
	w, tbl := testbed(t)
	frac := tbl.FractionSlash24(w.AnycastPrefixes())
	if frac < 0.84 || frac > 0.92 {
		t.Errorf("anycast /24-announcement fraction = %.3f, want ~0.88", frac)
	}
	if tbl.FractionSlash24(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestRouteLengths(t *testing.T) {
	_, tbl := testbed(t)
	for _, r := range tbl.Routes() {
		if r.AnnouncedLen < 8 || r.AnnouncedLen > 24 {
			t.Fatalf("route %v has announced length %d", r.Prefix, r.AnnouncedLen)
		}
	}
}

func TestCoverage(t *testing.T) {
	// Sec. 3.1: 99.99% of routed /24s have a hitlist representative.
	w, tbl := testbed(t)
	h := hitlist.FromWorld(w)
	covered, total := Coverage(tbl, h)
	if total != tbl.Len() {
		t.Fatal("total mismatch")
	}
	frac := float64(covered) / float64(total)
	if frac < 0.9995 || frac > 1.0 {
		t.Errorf("coverage = %.5f, want ~0.9999", frac)
	}
	if covered == total {
		t.Log("no coverage gap in this small world (acceptable at test scale)")
	}
}

func TestDeterministic(t *testing.T) {
	w, tbl := testbed(t)
	again := FromWorld(w)
	if again.Len() != tbl.Len() {
		t.Fatal("table size differs")
	}
	for i := range tbl.Routes() {
		if tbl.Routes()[i] != again.Routes()[i] {
			t.Fatal("route differs between builds")
		}
	}
}

// TestLookupsMatchMap holds OriginAS, Routed and FractionSlash24 to the
// per-/24 map index the table kept before it binary-searched its routes,
// on every routed /24 and on /24s just outside the routed run: 0.0.0.0/24,
// the /24s just below the first and just past the last route,
// 224.0.0.0/24 and the last /24 of the address space.
func TestLookupsMatchMap(t *testing.T) {
	w, tbl := testbed(t)
	ref := make(map[netsim.Prefix24]Route, tbl.Len())
	var prefixes []netsim.Prefix24
	for _, r := range tbl.Routes() {
		ref[r.Prefix] = r
		prefixes = append(prefixes, r.Prefix)
	}
	first, last := prefixes[0], prefixes[len(prefixes)-1]
	outside := []netsim.Prefix24{0, first - 1, last + 1, 0xE00000, 1<<24 - 1}
	for _, p := range outside {
		if _, ok := ref[p]; ok {
			t.Fatalf("%v is routed; it should lie outside the table", p)
		}
	}
	all := append(append([]netsim.Prefix24{}, prefixes...), outside...)
	for _, p := range all {
		r, routed := ref[p]
		if got := tbl.Routed(p); got != routed {
			t.Fatalf("Routed(%v) = %v, want %v", p, got, routed)
		}
		asn, ok := tbl.OriginAS(p)
		if ok != routed || asn != r.OriginASN {
			t.Fatalf("OriginAS(%v) = %d, %v; want %d, %v", p, asn, ok, r.OriginASN, routed)
		}
		want := 0.0
		if routed && r.AnnouncedLen == 24 {
			want = 1
		}
		if got := tbl.FractionSlash24([]netsim.Prefix24{p}); got != want {
			t.Fatalf("FractionSlash24([%v]) = %v, want %v", p, got, want)
		}
	}
	n := 0
	for _, p := range all {
		if r, ok := ref[p]; ok && r.AnnouncedLen == 24 {
			n++
		}
	}
	if got, want := tbl.FractionSlash24(all), float64(n)/float64(len(all)); got != want {
		t.Errorf("FractionSlash24 over every routed /24 and the outside ones = %v, want %v", got, want)
	}
	if got := tbl.Len(); got != w.NumPrefixes() {
		t.Errorf("table has %d routes for %d /24s", got, w.NumPrefixes())
	}
}

var tableSink *Table

// BenchmarkFromWorld derives the routing table of the census-wide
// benchmark workload's world (25,000 unicast /24s).
func BenchmarkFromWorld(b *testing.B) {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 25000
	w := netsim.New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tableSink = FromWorld(w)
	}
}
