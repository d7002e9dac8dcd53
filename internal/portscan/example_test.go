package portscan_test

import (
	"fmt"
	"sort"

	"anycastmap/internal/cities"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/portscan"
)

// The Sec. 4.3 service discovery for two ASes: scan the representative
// address of each of their anycast /24s over the full 2^16 TCP port space
// from one PlanetLab vantage point, and print each AS's union of open
// ports with its fingerprint, ASes by open ports (most first, ties by
// name). `experiments -exp fig14,fig15,fig16` runs the same scan over the
// top-100 ASes.
func ExampleScan() {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 2000 // the scan only touches anycast prefixes
	world := netsim.New(cfg)
	vp := platform.PlanetLab(cities.Default()).VPs()[0]

	type asScan struct {
		name     string
		prefixes int
		ports    map[uint16]portscan.OpenPort
	}
	var scans []asScan
	for _, name := range []string{"EDGECAST,US", "L-ROOT,US"} {
		as, _ := world.Registry.ByName(name)
		var targets []netsim.IP
		for _, d := range world.DeploymentsByASN(as.ASN) {
			if ip, alive := world.Representative(d.Prefix); alive {
				targets = append(targets, ip)
			}
		}
		s := asScan{name: name, prefixes: len(targets), ports: map[uint16]portscan.OpenPort{}}
		for _, rep := range portscan.Scan(world, vp, targets, portscan.Config{Round: 1}).Reports {
			for _, p := range rep.Open {
				s.ports[p.Port] = p
			}
		}
		scans = append(scans, s)
	}
	sort.Slice(scans, func(i, j int) bool {
		if len(scans[i].ports) != len(scans[j].ports) {
			return len(scans[i].ports) > len(scans[j].ports)
		}
		return scans[i].name < scans[j].name
	})

	for _, s := range scans {
		fmt.Printf("\n%s (%d /24s scanned): %d open ports\n", s.name, s.prefixes, len(s.ports))
		ports := make([]int, 0, len(s.ports))
		for p := range s.ports {
			ports = append(ports, int(p))
		}
		sort.Ints(ports)
		for _, p := range ports {
			op := s.ports[uint16(p)]
			sw, ssl := op.Software, ""
			if sw == "" {
				sw = "tcpwrapped"
			}
			if op.SSL {
				ssl = " [ssl]"
			}
			fmt.Printf("  %5d/tcp %-12s %s%s\n", p, op.Proto, sw, ssl)
		}
	}
	// Output:
	// EDGECAST,US (37 /24s scanned): 5 open ports
	//      53/tcp domain       tcpwrapped
	//      80/tcp http         ECAcc/ECS
	//     443/tcp http-ssl     ECD [ssl]
	//     554/tcp well-known   tcpwrapped
	//    1935/tcp rtmp         tcpwrapped
	//
	// L-ROOT,US (5 /24s scanned): 1 open ports
	//      53/tcp domain       NLnet Labs NSD
}
