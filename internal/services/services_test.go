package services

import (
	"reflect"
	"sort"
	"testing"

	"anycastmap/internal/asdb"
	"anycastmap/internal/detrand"
)

func build(t *testing.T) (*asdb.Registry, *Inventory) {
	t.Helper()
	reg := asdb.Default()
	return reg, Build(reg, 1)
}

func TestBuildDeterministic(t *testing.T) {
	reg := asdb.Default()
	a := Build(reg, 1)
	b := Build(reg, 1)
	for _, as := range reg.All() {
		sa, oka := a.ByASN(as.ASN)
		sb, okb := b.ByASN(as.ASN)
		if oka != okb {
			t.Fatalf("%v: presence differs", as)
		}
		if !oka {
			continue
		}
		if sa.Len() != sb.Len() {
			t.Fatalf("%v: size differs", as)
		}
		for i := range sa.Services() {
			if sa.Services()[i] != sb.Services()[i] {
				t.Fatalf("%v: service %d differs", as, i)
			}
		}
	}
}

func TestNamedInventories(t *testing.T) {
	reg, inv := build(t)
	cases := []struct {
		name  string
		ports int
	}{
		{"CLOUDFLARENET,US", 22},
		{"EDGECAST,US", 5},
		{"GOOGLE,US", 9},
		{"OVH,FR", 10148},
		{"INCAPSULA,US", 313},
	}
	for _, c := range cases {
		as := reg.MustByName(c.name)
		s, ok := inv.ByASN(as.ASN)
		if !ok {
			t.Errorf("%s has no inventory", c.name)
			continue
		}
		if s.Len() != c.ports {
			t.Errorf("%s has %d open ports, want %d", c.name, s.Len(), c.ports)
		}
	}
}

func TestCloudFlareEdgeCastShareOnlyThreePorts(t *testing.T) {
	// Sec. 4.2: CloudFlare and EdgeCast have only ports 53, 80 and 443 in
	// common, despite both being CDNs.
	reg, inv := build(t)
	cf, _ := inv.ByASN(reg.MustByName("CLOUDFLARENET,US").ASN)
	ec, _ := inv.ByASN(reg.MustByName("EDGECAST,US").ASN)
	var shared []uint16
	for _, p := range cf.OpenPorts() {
		if ec.Open(p) {
			shared = append(shared, p)
		}
	}
	if len(shared) != 3 {
		t.Fatalf("CF and EC share %v, want exactly {53,80,443}", shared)
	}
	for _, p := range []uint16{53, 80, 443} {
		if !cf.Open(p) || !ec.Open(p) {
			t.Errorf("port %d should be open on both", p)
		}
	}
}

func TestLookupAndOpen(t *testing.T) {
	reg, inv := build(t)
	cf, _ := inv.ByASN(reg.MustByName("CLOUDFLARENET,US").ASN)
	svc, ok := cf.Lookup(80)
	if !ok {
		t.Fatal("port 80 closed on CloudFlare")
	}
	if svc.Proto != "http" || svc.Software != "cloudflare-nginx" || !svc.WellKnown || svc.SSL {
		t.Errorf("port 80 service = %+v", svc)
	}
	if svc443, _ := cf.Lookup(443); !svc443.SSL {
		t.Error("port 443 should be SSL")
	}
	if cf.Open(81) {
		t.Error("port 81 should be closed")
	}
	var nilSet *Set
	if _, ok := nilSet.Lookup(80); ok {
		t.Error("nil set lookup should miss")
	}
}

func TestOVHWellKnownShare(t *testing.T) {
	// OVH's bulk must include several hundred well-known ports so the
	// census-wide union reaches the paper's 457 well-known services.
	reg, inv := build(t)
	ovh, _ := inv.ByASN(reg.MustByName("OVH,FR").ASN)
	wk := 0
	for _, s := range ovh.Services() {
		if s.WellKnown {
			wk++
		}
	}
	if wk < 400 || wk > 520 {
		t.Errorf("OVH exposes %d well-known ports, want ~450", wk)
	}
}

func TestTop100PortScanShape(t *testing.T) {
	// Fig. 14/15 shape: ~81 of the top-100 ASes expose at least one TCP
	// port; ~10-25 expose four or more; DNS port 53 is the most common
	// per-AS port.
	reg, inv := build(t)
	withAny, withFour, with53 := 0, 0, 0
	for _, a := range reg.Top100() {
		s, ok := inv.ByASN(a.ASN)
		if !ok || s.Len() == 0 {
			continue
		}
		withAny++
		if s.Len() >= 4 {
			withFour++
		}
		if s.Open(53) {
			with53++
		}
	}
	if withAny < 70 || withAny > 92 {
		t.Errorf("%d top-100 ASes with >=1 open port, want ~81", withAny)
	}
	if withFour < 10 || withFour > 30 {
		t.Errorf("%d top-100 ASes with >=4 open ports, want ~22", withFour)
	}
	if with53 < 40 {
		t.Errorf("only %d top-100 ASes expose TCP 53; DNS should dominate", with53)
	}
}

func TestSoftwareUniverse(t *testing.T) {
	// Every software name used in any inventory must be one of the 30
	// fingerprints of Fig. 16, and a healthy number of them must appear.
	reg, inv := build(t)
	known := map[string]bool{}
	for _, sw := range AllSoftware {
		known[sw] = true
	}
	used := map[string]bool{}
	for _, a := range reg.All() {
		s, ok := inv.ByASN(a.ASN)
		if !ok {
			continue
		}
		for _, sw := range s.SoftwareList() {
			if !known[sw] {
				t.Errorf("software %q not in the Fig. 16 universe", sw)
			}
			used[sw] = true
		}
	}
	if len(used) < 20 {
		t.Errorf("only %d of 30 software implementations appear in inventories", len(used))
	}
}

func TestSoftwareCategory(t *testing.T) {
	cases := map[string]string{
		"ISC BIND":    "DNS",
		"nginx":       "Web",
		"Gmail imapd": "Mail",
		"OpenSSH":     "Other",
		"nonsense":    "",
	}
	for sw, want := range cases {
		if got := SoftwareCategory(sw); got != want {
			t.Errorf("SoftwareCategory(%q) = %q, want %q", sw, got, want)
		}
	}
}

func TestIsWellKnown(t *testing.T) {
	for _, p := range []uint16{22, 53, 80, 443, 1023, 1935, 8080} {
		if !IsWellKnown(p) {
			t.Errorf("port %d should be well-known", p)
		}
	}
	for _, p := range []uint16{1024, 4444, 50000} {
		if IsWellKnown(p) {
			t.Errorf("port %d should not be well-known", p)
		}
	}
}

func TestServicesSortedByPort(t *testing.T) {
	reg, inv := build(t)
	for _, a := range reg.All() {
		s, ok := inv.ByASN(a.ASN)
		if !ok {
			continue
		}
		prev := -1
		for _, sv := range s.Services() {
			if int(sv.Port) <= prev {
				t.Fatalf("%v services not sorted/unique at port %d", a, sv.Port)
			}
			prev = int(sv.Port)
		}
	}
}

func TestDNSOverUDPFlag(t *testing.T) {
	reg, inv := build(t)
	od, _ := inv.ByASN(reg.MustByName("OPENDNS,US").ASN)
	if !od.ServesDNSOverUDP {
		t.Error("OpenDNS must serve DNS over UDP")
	}
	ms, _ := inv.ByASN(reg.MustByName("MICROSOFT,US").ASN)
	if ms.ServesDNSOverUDP {
		t.Error("Microsoft should not serve public DNS over UDP")
	}
}

// refBulkPorts is buildBulkPorts as it was with a port map and a sort: the
// reference the bit-set inventory is held to.
func refBulkPorts(seed uint64, total, lowWellKnown int) []Service {
	ports := map[uint16]bool{53: true, 80: true, 443: true, 22: true, 3306: true, 21: true, 25: true}
	for i := 0; len(ports) < lowWellKnown; i++ {
		ports[uint16(detrand.Intn(1023, seed, uint64(i), 0xB07)+1)] = true
	}
	for i := 0; len(ports) < total; i++ {
		ports[uint16(detrand.Intn(64512, seed, uint64(i), 0xB17)+1024)] = true
	}
	out := make([]Service, 0, len(ports))
	for p := range ports {
		out = append(out, Service{Port: p, SSL: detrand.UnitFloat(seed, uint64(p), 0xB55) < 0.017})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Port < out[j].Port })
	return out
}

// TestBulkPortsMatchReference holds the bit-set inventory to the map and
// sort it replaced, at OVH's and Incapsula's sizes and at the edges: no
// draw beyond the staples, and every port of the ephemeral range beside
// the 599 system ports of 600 marked (3306 is ephemeral).
func TestBulkPortsMatchReference(t *testing.T) {
	for _, c := range []struct {
		seed         uint64
		total, lowWK int
	}{{2015, 10148, 450}, {2016, 313, 7}, {1, 7, 7}, {3, 599 + 64512, 600}} {
		got, want := buildBulkPorts(c.seed, c.total, c.lowWK), refBulkPorts(c.seed, c.total, c.lowWK)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("buildBulkPorts(%d, %d, %d): %d services, want %d, or they differ", c.seed, c.total, c.lowWK, len(got), len(want))
		}
	}
}
