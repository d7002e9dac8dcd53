package prober

import (
	"sync"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/record"
)

var (
	pbOnce    sync.Once
	pbWorld   *netsim.World
	pbVP      platform.VP
	pbTargets []netsim.IP
	pbSkip    *Greylist
)

func pbSetup(b *testing.B) {
	b.Helper()
	pbOnce.Do(func() {
		cfg := netsim.DefaultConfig()
		cfg.Unicast24s = 8000
		pbWorld = netsim.New(cfg)
		pbVP = platform.PlanetLab(cities.Default()).VPs()[0]
		pbWorld.Prefixes(func(p netsim.Prefix24) {
			if ip, alive := pbWorld.Representative(p); alive {
				pbTargets = append(pbTargets, ip)
			}
		})
		// A realistic blacklist: the hosts that object to probing.
		skip, err := BuildBlacklist(pbWorld, pbVP, pbTargets, Config{Seed: 1})
		if err != nil {
			panic(err)
		}
		pbSkip = skip
	})
	b.ResetTimer()
}

// BenchmarkProberRun measures one full probing run (the census hot loop):
// LFSR walk, greylist check, probe, stats, sink. allocs/op divided by the
// target count is the per-probe allocation rate the acceptance criteria
// bound at zero.
func BenchmarkProberRun(b *testing.B) {
	pbSetup(b)
	b.ReportAllocs()
	sink := func(record.Sample) {}
	for i := 0; i < b.N; i++ {
		stats, _, err := Run(pbWorld, pbVP, pbTargets, pbSkip, Config{Seed: 7, Round: uint64(i%4 + 1)}, sink)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sent == 0 {
			b.Fatal("no probes sent")
		}
	}
	b.ReportMetric(float64(len(pbTargets)), "probes/op")
}

// BenchmarkGreylistContains measures the per-probe membership check on the
// mutable (RWMutex-guarded) greylist.
func BenchmarkGreylistContains(b *testing.B) {
	pbSetup(b)
	b.ReportAllocs()
	hit := 0
	for i := 0; i < b.N; i++ {
		if pbSkip.Contains(pbTargets[i%len(pbTargets)]) {
			hit++
		}
	}
	_ = hit
}

// BenchmarkGreylistFrozenContains measures the same membership check on the
// frozen lock-free view the probing loop actually uses.
func BenchmarkGreylistFrozenContains(b *testing.B) {
	pbSetup(b)
	frozen := pbSkip.Freeze()
	b.ReportAllocs()
	hit := 0
	for i := 0; i < b.N; i++ {
		if frozen.Contains(pbTargets[i%len(pbTargets)]) {
			hit++
		}
	}
	_ = hit
}

var (
	blOnce    sync.Once
	blWorld   *netsim.World
	blTargets []netsim.IP
)

// BenchmarkBuildBlacklist measures set-up's blacklist census at
// census-wide's world (25,000 unicast /24s beside the anycast catalogue):
// one vantage point probing the full hitlist, silent /24s included,
// recording nothing but the greylistable error kinds. Run it with -cpu 1.
func BenchmarkBuildBlacklist(b *testing.B) {
	blOnce.Do(func() {
		cfg := netsim.DefaultConfig()
		cfg.Unicast24s = 25000
		blWorld = netsim.New(cfg)
		blTargets = hitlist.FromWorld(blWorld).Targets()
	})
	vp := platform.PlanetLab(cities.Default()).VPs()[0]
	BuildBlacklist(blWorld, vp, blTargets, Config{Seed: 1}) // the vantage point's session, outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildBlacklist(blWorld, vp, blTargets, Config{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blTargets)), "probes/op")
}
