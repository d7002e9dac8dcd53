package core_test

import (
	"fmt"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// The smallest end-to-end use of the library: build a synthetic Internet,
// probe one anycast and one unicast target from every PlanetLab vantage
// point, keeping each one's minimum RTT over three rounds as the census
// combination does, and run the paper's detection, enumeration and
// geolocation on both.
func ExampleAnalyze() {
	// A synthetic Internet: the full anycast inventory of the paper plus
	// a small unicast background.
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 2000
	world := netsim.New(cfg)
	db := cities.Default()
	pl := platform.PlanetLab(db)
	fmt.Printf("world: %d /24s, %d of them anycast; %d PlanetLab vantage points\n\n",
		world.NumPrefixes(), len(world.Deployments()), pl.Len())

	// CloudFlare's first /24, and the first unicast /24 whose
	// representative answers right now.
	cf := world.Registry.MustByName("CLOUDFLARENET,US")
	anycastDep := world.DeploymentsByASN(cf.ASN)[0]
	anycastIP, _ := world.Representative(anycastDep.Prefix)
	var unicastIP netsim.IP
	world.Prefixes(func(p netsim.Prefix24) {
		if unicastIP != 0 || world.IsAnycast(p) {
			return
		}
		if ip, alive := world.Representative(p); alive && world.ProbeICMP(pl.VPs()[0], ip, 1).OK() {
			unicastIP = ip
		}
	})

	for _, target := range []netsim.IP{anycastIP, unicastIP} {
		ms := prober.MinRTT(pl.VPs(), 3, func(vp platform.VP, round uint64) netsim.Reply {
			return world.ProbeICMP(vp, target, round)
		})
		res := core.Analyze(db, ms, core.Options{})
		if !res.Anycast {
			fmt.Printf("%v: unicast (no speed-of-light violation across %d VPs)\n\n", target, len(ms))
			continue
		}
		fmt.Printf("%v: ANYCAST, at least %d replicas:\n", target, res.Count())
		for _, r := range res.Replicas {
			if r.Located {
				fmt.Printf("  %v\n", r.City)
			}
		}
		fmt.Println()
	}

	// The ground truth the measurement never saw.
	fmt.Printf("ground truth for %v: %d replicas in %v\n",
		anycastDep.Prefix, len(anycastDep.Replicas), anycastDep.Cities())
	// Output:
	// world: 3696 /24s, 1696 of them anycast; 302 PlanetLab vantage points
	//
	// 1.11.197.18: ANYCAST, at least 24 replicas:
	//   Boston,US
	//   Seattle,US
	//   San Jose,US
	//   Charlotte,US
	//   Philadelphia,US
	//   Mexico City,MX
	//   Chicago,US
	//   Los Angeles,US
	//   Washington,US
	//   Toronto,CA
	//   Paris,FR
	//   London,GB
	//   Brussels,BE
	//   Saint Petersburg,RU
	//   Warsaw,PL
	//   Vienna,AT
	//   Istanbul,TR
	//   Tokyo,JP
	//   Shanghai,CN
	//   Shenzhen,CN
	//   Mumbai,IN
	//   Sydney,AU
	//   Sao Paulo,BR
	//   Cape Town,ZA
	//
	// 1.0.12.167: unicast (no speed-of-light violation across 302 VPs)
	//
	// ground truth for 1.11.197.0/24: 31 replicas in [amsterdam,nl atlanta,us bangalore,in boston,us brussels,be cape town,za chicago,us hanoi,vn hong kong,hk kyiv,ua lima,pe london,gb los angeles,us mexico city,mx mumbai,in osaka,jp paris,fr saint petersburg,ru san francisco,us san jose,us sao paulo,br seattle,us shanghai,cn sydney,au tokyo,jp toronto,ca vancouver,ca vienna,at warsaw,pl washington,us zagreb,hr]
}
