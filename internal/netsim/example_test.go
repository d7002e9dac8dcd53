package netsim_test

import (
	"fmt"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// BGP hijack detection, the paper's Sec. 5 extension: a unicast /24 whose
// monitoring scan is geo-consistent is hijacked by a rogue origin on
// another continent, the next scan violates the speed of light, and the
// alarm is cross-checked against each vantage point's traceroute.
func ExampleWorld_InjectHijack() {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 2000
	world := netsim.New(cfg)
	db := cities.Default()
	pl := platform.PlanetLab(db)
	// scan measures the target from every PlanetLab VP, the minimum of
	// three rounds.
	scan := func(target netsim.IP) []core.Measurement {
		return prober.MinRTT(pl.VPs(), 3, func(vp platform.VP, round uint64) netsim.Reply {
			return world.ProbeICMP(vp, target, round)
		})
	}

	// The victim: the first unicast prefix whose representative answers.
	var victim netsim.Prefix24
	var target netsim.IP
	world.Prefixes(func(p netsim.Prefix24) {
		if victim != 0 || world.IsAnycast(p) {
			return
		}
		if ip, alive := world.Representative(p); alive && world.ProbeICMP(pl.VPs()[0], ip, 1).OK() {
			victim, target = p, ip
		}
	})

	// A monitoring round before the attack.
	baseline := scan(target)
	fmt.Printf("baseline scan of %v: %d samples\n", victim, len(baseline))
	if res := core.Analyze(db, baseline, core.Options{}); res.Anycast {
		fmt.Printf("baseline already geo-inconsistent: %v\n", res.Replicas)
		return
	}
	fmt.Println("  geo-consistent: all latency disks share a common region. No alarm.")

	// A rogue AS in another continent announces the victim's prefix and
	// attracts 40% of the vantage points.
	rogue := db.MustByName("Moscow", "RU")
	if err := world.InjectHijack(victim, rogue.Loc, 0.4); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("\n[attacker announces %v from %v, catching ~40%% of the Internet]\n\n", victim, rogue)

	// The next monitoring round sees the origin split in two.
	res := core.Analyze(db, scan(target), core.Options{})
	if !res.Anycast {
		fmt.Println("hijack not detected")
		return
	}
	fmt.Printf("ALARM: prefix %v, registered as unicast, now violates the speed of light.\n", victim)
	fmt.Printf("Apparent origins (%d):\n", res.Count())
	for _, r := range res.Replicas {
		if r.Located {
			fmt.Printf("  %v (first seen via %s)\n", r.City, r.VP)
		}
	}

	// Sec. 5 cross-checks an alarm before paging anyone: a hijacked
	// catchment's traceroute diverges early from its pre-alarm baseline.
	fmt.Println("\nCross-checking with traceroutes:")
	diverged, checked := 0, 0
	for _, vp := range pl.VPs() {
		if checked >= 40 {
			break
		}
		world.ClearHijack(victim)
		base := world.Traceroute(vp, target, 1)
		world.InjectHijack(victim, rogue.Loc, 0.4)
		now := world.Traceroute(vp, target, 1)
		if base == nil || now == nil {
			continue
		}
		checked++
		if shared, minLen := netsim.PathDivergence(base, now); shared < minLen {
			diverged++
		}
	}
	fmt.Printf("  %d of %d vantage points see their forwarding path diverge from baseline.\n", diverged, checked)
	fmt.Println("  Alarm CONFIRMED: geo-inconsistency plus path divergence (Sec. 5's cross-check).")

	world.ClearHijack(victim)
	if core.Analyze(db, scan(target), core.Options{}).Anycast {
		fmt.Println("hijack cleared but inconsistency remains")
		return
	}
	fmt.Println("\n[hijack withdrawn; next scan is geo-consistent again]")
	// Output:
	// baseline scan of 1.0.12.0/24: 302 samples
	//   geo-consistent: all latency disks share a common region. No alarm.
	//
	// [attacker announces 1.0.12.0/24 from Moscow,RU, catching ~40% of the Internet]
	//
	// ALARM: prefix 1.0.12.0/24, registered as unicast, now violates the speed of light.
	// Apparent origins (3):
	//   London,GB (first seen via planetlab2.cs.ox.ac.uk)
	//   Istanbul,TR (first seen via planetlab1.bilkent.edu.tr)
	//   Chongqing,CN (first seen via planetlab2.osaka-u.ac.jp)
	//
	// Cross-checking with traceroutes:
	//   22 of 40 vantage points see their forwarding path diverge from baseline.
	//   Alarm CONFIRMED: geo-inconsistency plus path divergence (Sec. 5's cross-check).
	//
	// [hijack withdrawn; next scan is geo-consistent again]
}
