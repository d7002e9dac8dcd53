package hitlist

import (
	"testing"

	"anycastmap/internal/netsim"
)

func smallWorld() *netsim.World {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 4000
	return netsim.New(cfg)
}

func TestFromWorldCoverage(t *testing.T) {
	w := smallWorld()
	h := FromWorld(w)
	total := w.NumPrefixes()
	if h.Len() < total-10 || h.Len() > total {
		t.Errorf("hitlist has %d entries for %d prefixes, want ~99.99%% coverage", h.Len(), total)
	}
}

func TestEntriesSortedAndConsistent(t *testing.T) {
	w := smallWorld()
	h := FromWorld(w)
	for i, e := range h.Entries() {
		if e.IP.Prefix() != e.Prefix {
			t.Fatalf("entry %d: IP %v outside prefix %v", i, e.IP, e.Prefix)
		}
		if i > 0 && e.Prefix <= h.Entries()[i-1].Prefix {
			t.Fatal("entries not sorted by prefix")
		}
		if e.Score == 0 || e.Score == -1 {
			t.Fatalf("entry %d has invalid score %d (never-alive entries score <= -2)", i, e.Score)
		}
	}
}

func TestPruneNeverAlive(t *testing.T) {
	w := smallWorld()
	full := FromWorld(w)
	pruned := full.PruneNeverAlive()
	// Paper: 6.6M of 10.6M targets survive pruning (~62%). Anycast
	// prefixes are always alive, so measure the ratio over the unicast
	// background (the test world is small enough that anycast would skew
	// it).
	uniFull, uniKept := 0, 0
	for _, e := range full.Entries() {
		if w.IsAnycast(e.Prefix) {
			continue
		}
		uniFull++
		if e.EverAlive() {
			uniKept++
		}
	}
	ratio := float64(uniKept) / float64(uniFull)
	if ratio < 0.56 || ratio > 0.68 {
		t.Errorf("pruning kept %.2f of the unicast hitlist, want ~0.62", ratio)
	}
	if pruned.Len() >= full.Len() {
		t.Error("pruning removed nothing")
	}
	for _, e := range pruned.Entries() {
		if !e.EverAlive() {
			t.Fatal("pruned hitlist still contains never-alive entries")
		}
	}
}

func TestAnycastAlwaysSurvivesPruning(t *testing.T) {
	w := smallWorld()
	pruned := FromWorld(w).PruneNeverAlive()
	missing := 0
	for _, d := range w.Deployments() {
		if !pruned.Covers(d.Prefix) {
			missing++
		}
	}
	// Only the 0.01% coverage gap may lose anycast prefixes.
	if missing > 3 {
		t.Errorf("%d anycast /24s missing from the pruned hitlist", missing)
	}
}

func TestLookupAndCovers(t *testing.T) {
	w := smallWorld()
	h := FromWorld(w)
	e := h.Entries()[17]
	got, ok := h.Lookup(e.IP)
	if !ok || got != e {
		t.Error("Lookup failed for an existing entry")
	}
	if _, ok := h.Lookup(netsim.IP(1)); ok {
		t.Error("Lookup hit for a bogus address")
	}
	if !h.Covers(e.Prefix) {
		t.Error("Covers false for an existing prefix")
	}
	if h.Covers(netsim.Prefix24(3)) {
		t.Error("Covers true for an unallocated prefix")
	}
}

func TestWithout(t *testing.T) {
	w := smallWorld()
	h := FromWorld(w)
	bl := map[netsim.IP]bool{
		h.Entries()[0].IP: true,
		h.Entries()[5].IP: true,
	}
	h2 := h.Without(bl)
	if h2.Len() != h.Len()-2 {
		t.Errorf("Without removed %d entries, want 2", h.Len()-h2.Len())
	}
	for ip := range bl {
		if _, ok := h2.Lookup(ip); ok {
			t.Error("blacklisted target still present")
		}
	}
	if h.Without(nil) != h {
		t.Error("Without(nil) should return the receiver")
	}
}

func TestTargets(t *testing.T) {
	w := smallWorld()
	h := FromWorld(w)
	ts := h.Targets()
	if len(ts) != h.Len() {
		t.Fatal("Targets length mismatch")
	}
	for i, ip := range ts {
		if ip != h.Entries()[i].IP {
			t.Fatal("Targets order mismatch")
		}
	}
}

func TestDeterministic(t *testing.T) {
	w := smallWorld()
	a, b := FromWorld(w), FromWorld(w)
	if a.Len() != b.Len() {
		t.Fatal("length differs")
	}
	for i := range a.Entries() {
		if a.Entries()[i] != b.Entries()[i] {
			t.Fatal("entries differ between builds")
		}
	}
}

// TestLookupsMatchMap holds Lookup and Covers to the per-address map index
// the hitlist kept before it binary-searched its entries, on the full, the
// pruned and a blacklisted list: every entry's address and /24, an address
// beside each representative, every /24 of the world (the coverage gap
// included), and /24s outside it - 0.0.0.0/24, the /24s just below the
// first and just past the last, 224.0.0.0/24 and the last /24 of the
// address space.
func TestLookupsMatchMap(t *testing.T) {
	w := smallWorld()
	full := FromWorld(w)
	pruned := full.PruneNeverAlive()
	black := map[netsim.IP]bool{}
	for i, e := range pruned.Entries() {
		if i%11 == 0 {
			black[e.IP] = true
		}
	}
	var prefixes []netsim.Prefix24
	w.Prefixes(func(p netsim.Prefix24) { prefixes = append(prefixes, p) })
	first, last := prefixes[0], prefixes[len(prefixes)-1]
	prefixes = append(prefixes, 0, first-1, last+1, 0xE00000, 1<<24-1)

	for name, h := range map[string]*Hitlist{"full": full, "pruned": pruned, "blacklisted": pruned.Without(black)} {
		byIP := make(map[netsim.IP]Entry, h.Len())
		covered := make(map[netsim.Prefix24]bool, h.Len())
		for _, e := range h.Entries() {
			byIP[e.IP] = e
			covered[e.Prefix] = true
		}
		var ips []netsim.IP
		for _, p := range prefixes {
			if got := h.Covers(p); got != covered[p] {
				t.Fatalf("%s: Covers(%v) = %v, want %v", name, p, got, covered[p])
			}
			rep, _ := w.Representative(p)
			ips = append(ips, rep, rep^1, p.Host(0), p.Host(255))
		}
		for _, ip := range ips {
			want, wantOK := byIP[ip]
			if got, ok := h.Lookup(ip); got != want || ok != wantOK {
				t.Fatalf("%s: Lookup(%v) = %+v, %v; want %+v, %v", name, ip, got, ok, want, wantOK)
			}
		}
	}
}

var hitlistSink *Hitlist

// BenchmarkFromWorld builds the full hitlist of the census-wide benchmark
// workload's world (25,000 unicast /24s).
func BenchmarkFromWorld(b *testing.B) {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 25000
	w := netsim.New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hitlistSink = FromWorld(w)
	}
}
