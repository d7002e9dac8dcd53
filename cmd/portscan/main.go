// Command portscan runs the Sec. 4.3 service-discovery campaign: it scans
// the representative address of each anycast /24 of the named ASes (or of
// the whole top-100 set) across the full TCP port space and prints the
// per-AS service inventory with fingerprints.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"anycastmap/internal/bgp"
	"anycastmap/internal/cities"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/portscan"
)

func main() {
	asList := flag.String("as", "", "semicolon-separated AS names, e.g. \"EDGECAST,US;L-ROOT,US\" (default: all top-100 ASes)")
	seed := flag.Uint64("seed", 2015, "world seed")
	maxPorts := flag.Int("show", 12, "ports to print per AS")
	flag.Parse()
	log.SetFlags(0)
	if *maxPorts < 0 {
		log.Fatalf("show: %d ports per AS is negative, want 0 or more", *maxPorts)
	}

	cfg := netsim.DefaultConfig()
	cfg.Seed = *seed
	cfg.Unicast24s = 2000 // the scan only touches anycast prefixes
	world := netsim.New(cfg)
	table := bgp.FromWorld(world)
	vp := platform.PlanetLab(cities.Default()).VPs()[0]

	var names []string
	if *asList != "" {
		names = strings.Split(*asList, ";")
	} else {
		for _, as := range world.Registry.Top100() {
			names = append(names, as.Name)
		}
	}

	var targets []netsim.IP
	for _, name := range names {
		as, ok := world.Registry.ByName(strings.TrimSpace(name))
		if !ok {
			log.Fatalf("unknown AS %q", name)
		}
		for _, d := range world.DeploymentsByASN(as.ASN) {
			if ip, alive := world.Representative(d.Prefix); alive {
				targets = append(targets, ip)
			}
		}
	}
	log.Printf("scanning %d representative addresses of %d ASes over the full 2^16 port space...",
		len(targets), len(names))

	start := time.Now()
	camp := portscan.Scan(world, vp, targets, portscan.Config{Round: 1})
	log.Printf("scan done in %v: %d of %d hosts responded",
		time.Since(start).Round(time.Millisecond), camp.RespondingHosts(), len(targets))

	// Aggregate per AS.
	type asAgg struct {
		ports    map[uint16]portscan.OpenPort
		prefixes int
	}
	byAS := map[int]*asAgg{}
	for _, rep := range camp.Reports {
		asn, ok := table.OriginAS(rep.Target.Prefix())
		if !ok {
			continue
		}
		agg := byAS[asn]
		if agg == nil {
			agg = &asAgg{ports: map[uint16]portscan.OpenPort{}}
			byAS[asn] = agg
		}
		agg.prefixes++
		for _, p := range rep.Open {
			agg.ports[p.Port] = p
		}
	}

	asns := make([]int, 0, len(byAS))
	for asn := range byAS {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return len(byAS[asns[i]].ports) > len(byAS[asns[j]].ports) })

	for _, asn := range asns {
		as, _ := world.Registry.ByASN(asn)
		agg := byAS[asn]
		fmt.Printf("\n%s (%d /24s scanned): %d open ports\n", as.Name, agg.prefixes, len(agg.ports))
		ports := make([]int, 0, len(agg.ports))
		for p := range agg.ports {
			ports = append(ports, int(p))
		}
		sort.Ints(ports)
		shown := 0
		for _, p := range ports {
			if shown >= *maxPorts {
				fmt.Printf("  ... and %d more\n", len(ports)-shown)
				break
			}
			op := agg.ports[uint16(p)]
			sw := op.Software
			if sw == "" {
				sw = "tcpwrapped"
			}
			ssl := ""
			if op.SSL {
				ssl = " [ssl]"
			}
			fmt.Printf("  %5d/tcp %-12s %s%s\n", p, op.Proto, sw, ssl)
			shown++
		}
	}
}
