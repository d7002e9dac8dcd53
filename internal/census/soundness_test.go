package census

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

// TestSoundnessProperties states iGreedy's one-sided guarantees as
// properties over random worlds and fault plans, checked against netsim's
// ground truth with no golden. Every world runs two rounds through
// ExecuteRoundPipelined under its own FaultPlan - loss bursts, flaps,
// target outages, recoverable and sticky crashes - and the analysis of the
// combined matrix must satisfy:
//
//	(i)  no unicast /24 is reported anycast: added latency only grows disks,
//	     and a disk always contains the host that answered it;
//	(ii) the greedy MIS of a detected target's disks is no larger than its
//	     deployment's true replica count: disjoint disks hold distinct
//	     replicas. The reported enumeration (Result.Count) is not held to
//	     it: the iterations after the first MIS collapse located disks to
//	     their cities, and here it exceeds the true count on ~1 detection
//	     in 8;
//	(iii) every geolocated replica's city lies inside its disk, both the
//	     reported (city-collapsed) one and the measured disk of the vantage
//	     point that isolated it, within the slack cities.Index grants; that
//	     every reported disk holds a true replica waits on the decision
//	     about (ii);
//	(iv) dropping vantage-point rows from the combined matrix never adds a
//	     detection (Fig. 5's monotonicity).
//
// It generalizes TestAnalyzeAllNoFalsePositives, one fault-free world.
func TestSoundnessProperties(t *testing.T) {
	const worlds = 16
	pl := platform.PlanetLab(cities.Default())
	db := cities.Default()
	var health CampaignHealth
	detections, misChecked, locatedChecked := 0, 0, 0
	for wi := range worlds {
		rng := rand.New(rand.NewSource(int64(wi) + 1))
		cfg := netsim.DefaultConfig()
		cfg.Seed = 4000 + uint64(wi)*7919
		cfg.Unicast24s = 300 + rng.Intn(300)
		w := netsim.New(cfg)
		faults := netsim.FaultConfig{
			Seed:                 rng.Uint64(),
			CrashFraction:        0.1 + 0.3*rng.Float64(),
			CrashStickiness:      0.5 * rng.Float64(),
			RecoveryAttempts:     1 + rng.Intn(2),
			FlapFraction:         0.3 * rng.Float64(),
			BurstLossFraction:    0.3 * rng.Float64(),
			TargetOutageFraction: 0.1 * rng.Float64(),
		}
		plan, err := netsim.NewFaultPlan(faults)
		if err != nil {
			t.Fatal(err)
		}

		// Every unicast /24 the pruned hitlist keeps, and one anycast /24 in
		// twenty: the analysis of an anycast target is what costs.
		full := hitlist.FromWorld(w).PruneNeverAlive()
		thin := map[netsim.IP]bool{}
		for i, ip := range full.Targets() {
			if w.IsAnycast(ip.Prefix()) && i%20 != 0 {
				thin[ip] = true
			}
		}
		h := full.Without(thin)

		cp := NewCampaign(CampaignConfig{Census: Config{
			Seed: cfg.Seed, Workers: 2, MaxAttempts: 2 + rng.Intn(2), RetryBackoff: -1,
		}})
		pc := PipelineConfig{SpanTargets: 64 << rng.Intn(5)}
		for round := uint64(1); round <= 2; round++ {
			vps := pl.Sample(24+rng.Intn(24), cfg.Seed+round)
			// A quarantine is an error the round reports and survives.
			if _, err := cp.ExecuteRoundPipelined(context.Background(), w.WithFaults(plan), vps, h, nil, round, pc); err != nil && len(cp.Health().Quarantined) == 0 {
				t.Fatalf("world %d round %d: %v", wi, round, err)
			}
		}
		c := cp.Combined()
		ch := cp.Health()
		health.Retries += ch.Retries
		health.Recovered += ch.Recovered
		health.Quarantined = append(health.Quarantined, ch.Quarantined...)

		detected := map[netsim.IP]bool{}
		for _, o := range AnalyzeAll(db, c, core.Options{}, 2, 0) {
			d, anycast := w.Deployment(o.Prefix())
			if !anycast {
				t.Fatalf("world %d (%+v): (i) unicast %v reported anycast with %d replicas", wi, faults, o.Target, o.Result.Count())
			}
			detected[o.Target] = true
			ti := slices.Index(c.Targets, o.Target)
			ms := c.Measurements(ti)
			disks := make([]geo.Disk, len(ms))
			for i, m := range ms {
				disks[i] = m.Disk()
			}
			if mis := core.MISGreedy(disks); len(mis) > len(d.Replicas) {
				t.Fatalf("world %d (%+v): (ii) %v: MIS of %d disks exceeds the %d true replicas", wi, faults, o.Target, len(mis), len(d.Replicas))
			}
			misChecked++
			for _, r := range o.Result.Replicas {
				if !r.Located {
					continue
				}
				vi := slices.IndexFunc(ms, func(m core.Measurement) bool { return m.VP == r.VP })
				if vi < 0 || !cityInDisk(r.Disk, r.City) || !cityInDisk(disks[vi], r.City) {
					t.Fatalf("world %d (%+v): (iii) %v: replica via %s located in %v, outside its reported disk %v or measured disk %d",
						wi, faults, o.Target, r.VP, r.City, r.Disk, vi)
				}
				locatedChecked++
			}
		}
		detections += len(detected)

		// (iv): drop each row with probability one half, three times over.
		for drop := range 3 {
			sub := &Combined{Targets: c.Targets, Rounds: c.Rounds}
			for v := range c.VPs {
				if rng.Intn(2) == 0 {
					sub.VPs = append(sub.VPs, c.VPs[v])
					sub.RTTus = append(sub.RTTus, c.RTTus[v])
				}
			}
			for _, o := range AnalyzeAll(db, sub, core.Options{}, 2, 0) {
				if !detected[o.Target] {
					t.Fatalf("world %d, drop %d: (iv) %v detected from %d of %d vantage points but not from all of them",
						wi, drop, o.Target, len(sub.VPs), len(c.VPs))
				}
			}
		}
	}
	if detections == 0 || misChecked == 0 || locatedChecked == 0 {
		t.Fatal("no anycast target detected in any world: the properties held vacuously")
	}
	if health.Retries == 0 || health.Recovered == 0 || len(health.Quarantined) == 0 {
		t.Fatalf("the fault plans never bit: %d retries, %d recovered, %d quarantined",
			health.Retries, health.Recovered, len(health.Quarantined))
	}
	t.Logf("%d worlds: %d detections, %d located replicas, %d retries, %d recovered, %d quarantined VPs",
		worlds, detections, locatedChecked, health.Retries, health.Recovered, len(health.Quarantined))
}

// cityInDisk is the containment test cities.Index applies when it picks a
// disk's city.
func cityInDisk(d geo.Disk, c cities.City) bool {
	return geo.PointDistanceKm(geo.Prepare(d.Center), geo.Prepare(c.Loc)) <= d.RadiusKm+geo.OverlapEpsKm
}
