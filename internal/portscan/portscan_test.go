package portscan

import (
	"sync"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

var (
	once sync.Once
	w    *netsim.World
	vp   platform.VP
)

func testbed(t *testing.T) (*netsim.World, platform.VP) {
	t.Helper()
	once.Do(func() {
		cfg := netsim.DefaultConfig()
		cfg.Unicast24s = 2000
		w = netsim.New(cfg)
		vp = platform.PlanetLab(cities.Default()).VPs()[0]
	})
	return w, vp
}

func repOf(t *testing.T, w *netsim.World, name string) netsim.IP {
	t.Helper()
	as := w.Registry.MustByName(name)
	ip, _ := w.Representative(w.DeploymentsByASN(as.ASN)[0].Prefix)
	return ip
}

func TestFullScanCloudFlare(t *testing.T) {
	w, vp := testbed(t)
	target := repOf(t, w, "CLOUDFLARENET,US")
	camp := Scan(w, vp, []netsim.IP{target}, Config{})
	rep := camp.Reports[0]
	if !rep.Responded() {
		t.Fatal("CloudFlare representative exposed no ports")
	}
	// 22 ports in the inventory; in-path filtering may hide a couple.
	if len(rep.Open) < 18 || len(rep.Open) > 22 {
		t.Errorf("found %d open ports on CloudFlare, want ~22", len(rep.Open))
	}
	ports := rep.OpenPortSet()
	for _, must := range []uint16{53, 80, 443} {
		if !ports[must] {
			t.Errorf("port %d missing from CloudFlare scan", must)
		}
	}
	// The HTTP front end fingerprints as cloudflare-nginx.
	found := false
	for _, p := range rep.Open {
		if p.Software == "cloudflare-nginx" {
			found = true
		}
		if p.Port == 443 && !p.SSL {
			t.Error("443 not flagged SSL")
		}
		if p.Port == 80 && (!p.WellKnown || p.Proto != "http") {
			t.Errorf("port 80 misclassified: %+v", p)
		}
	}
	if !found {
		t.Error("cloudflare-nginx fingerprint missing")
	}
}

func TestScanRestrictedPorts(t *testing.T) {
	w, vp := testbed(t)
	target := repOf(t, w, "EDGECAST,US")
	camp := Scan(w, vp, []netsim.IP{target}, Config{Ports: []uint16{53, 80, 443, 1935, 8080, 2052}})
	rep := camp.Reports[0]
	ports := rep.OpenPortSet()
	if ports[8080] || ports[2052] {
		t.Error("EdgeCast exposes CloudFlare-only ports")
	}
	open := 0
	for _, p := range []uint16{53, 80, 443, 1935} {
		if ports[p] {
			open++
		}
	}
	if open < 3 {
		t.Errorf("EdgeCast scan found only %d of its staple ports", open)
	}
}

func TestUnicastMostlyClosed(t *testing.T) {
	w, vp := testbed(t)
	// Scan a handful of unicast representatives on common ports: most
	// expose nothing or a lone web port.
	var targets []netsim.IP
	w.Prefixes(func(p netsim.Prefix24) {
		if len(targets) >= 40 || w.IsAnycast(p) {
			return
		}
		ip, alive := w.Representative(p)
		if alive {
			targets = append(targets, ip)
		}
	})
	camp := Scan(w, vp, targets, Config{Ports: []uint16{80, 443, 22}})
	if camp.RespondingHosts() > len(targets)/2 {
		t.Errorf("%d of %d unicast hosts responded to TCP, want a minority",
			camp.RespondingHosts(), len(targets))
	}
}

func TestDNSOnlyDeployment(t *testing.T) {
	w, vp := testbed(t)
	target := repOf(t, w, "L-ROOT,US")
	camp := Scan(w, vp, []netsim.IP{target}, Config{Ports: []uint16{53, 80, 443}})
	rep := camp.Reports[0]
	ports := rep.OpenPortSet()
	if !ports[53] {
		t.Error("L-root does not expose TCP 53")
	}
	if ports[80] || ports[443] {
		t.Error("L-root exposes web ports")
	}
	for _, p := range rep.Open {
		if p.Port == 53 && p.Software != "NLnet Labs NSD" {
			t.Errorf("L-root fingerprint = %q, want NSD", p.Software)
		}
	}
}

func TestTcpwrappedFingerprint(t *testing.T) {
	// Many DNS ASes have no identifiable banner; the scan reports the
	// open port with empty software.
	w, vp := testbed(t)
	sawWrapped := false
	for _, as := range w.Registry.Top100() {
		if as.Category.Coarse() != "DNS" {
			continue
		}
		set, ok := w.Services.ByASN(as.ASN)
		if !ok || !set.Open(53) {
			continue
		}
		if svc, _ := set.Lookup(53); svc.Software != "" {
			continue
		}
		ip, _ := w.Representative(w.DeploymentsByASN(as.ASN)[0].Prefix)
		camp := Scan(w, vp, []netsim.IP{ip}, Config{Ports: []uint16{53}})
		for _, p := range camp.Reports[0].Open {
			if p.Port == 53 && p.Software == "" {
				sawWrapped = true
			}
		}
		if sawWrapped {
			break
		}
	}
	if !sawWrapped {
		t.Error("no tcpwrapped port-53 service observed")
	}
}

func TestReportsOrderAndSorting(t *testing.T) {
	w, vp := testbed(t)
	targets := []netsim.IP{
		repOf(t, w, "GOOGLE,US"),
		repOf(t, w, "OPENDNS,US"),
	}
	camp := Scan(w, vp, targets, Config{Ports: []uint16{443, 53, 80, 25}})
	if len(camp.Reports) != 2 {
		t.Fatal("report count mismatch")
	}
	for i, r := range camp.Reports {
		if r.Target != targets[i] {
			t.Error("reports out of input order")
		}
		for j := 1; j < len(r.Open); j++ {
			if r.Open[j].Port <= r.Open[j-1].Port {
				t.Error("open ports not sorted")
			}
		}
	}
}

func BenchmarkFullPortscanOneHost(b *testing.B) {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 2000
	world := netsim.New(cfg)
	v := platform.PlanetLab(cities.Default()).VPs()[0]
	as := world.Registry.MustByName("CLOUDFLARENET,US")
	ip, _ := world.Representative(world.DeploymentsByASN(as.ASN)[0].Prefix)
	world.Services.ByASN(as.ASN) // builds the service sets before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Scan(world, v, []netsim.IP{ip}, Config{})
	}
}
