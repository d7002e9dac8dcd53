package census

import (
	"context"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// seedCensus folds one of the repository benchmark's census shapes
// (bench/workloads.go: seed 2015, blacklist census, pruned hitlist, a fresh
// vantage-point sample per round) with fewer unicast /24s, and binds an
// analyzer to the combined matrix.
func seedCensus(t *testing.T, pl *platform.Platform, unicast24s, rounds, vpsPerRound int) *Analyzer {
	t.Helper()
	const seed = 2015
	wcfg := netsim.DefaultConfig()
	wcfg.Seed, wcfg.Unicast24s = seed, unicast24s
	w := netsim.New(wcfg)
	full := hitlist.FromWorld(w)
	black, err := prober.BuildBlacklist(w, pl.VPs()[0], full.Targets(), prober.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h := full.PruneNeverAlive().Without(black.Targets())
	cp := NewCampaign(CampaignConfig{Census: Config{Seed: seed}})
	for round := 1; round <= rounds; round++ {
		vps := pl.Sample(vpsPerRound, seed+uint64(round))
		if _, err := cp.ExecuteRoundPipelined(context.Background(), w, vps, h, black, uint64(round), PipelineConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAnalyzer(cities.Default(), AnalyzerConfig{})
	a.bind(cp.Combined())
	return a
}

// TestSplitScanMatchesPairScanOnCensus holds the detection kernel, on every
// target of a PlanetLab 2x261 and a RIPE-like 400-VP census, to the
// definition it replaced — some pair of the target's disks fails Overlaps —
// and logs how the verdicts were reached (EXPERIMENTS.md quotes it).
func TestSplitScanMatchesPairScanOnCensus(t *testing.T) {
	db := cities.Default()
	for _, tc := range []struct {
		name                string
		pl                  *platform.Platform
		rounds, vpsPerRound int
	}{
		{"planetlab-2x261", platform.PlanetLab(db), 2, 261},
		{"ripe-1x400", platform.RIPEAtlas(db), 1, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := seedCensus(t, tc.pl, 3000, tc.rounds, tc.vpsPerRound)
			s, st := a.newScan(), AnalyzerStats{}
			var anycast, disks int64
			for tgt := range a.c.Targets {
				got := a.detect(s, tgt, false, &st)
				want := false
				for i, ri := range s.Radii {
					row := s.Row(s.Slots[i])
					for j, rj := range s.Radii[:i] {
						want = want || row[s.Slots[j]] > ri+rj+geo.OverlapEpsKm
					}
				}
				if got != want {
					t.Fatalf("target %v (%d disks): split scan anycast = %v, pair scan %v", a.c.Targets[tgt], len(s.Radii), got, want)
				}
				if got {
					anycast++
				}
				disks += int64(len(s.Radii))
			}
			if s.Witness == 0 || s.Split == 0 || anycast == 0 {
				t.Fatalf("census left a path untested: %d witness, %d split, %d anycast", s.Witness, s.Split, anycast)
			}
			unicast := st.Analyzed - anycast
			t.Logf("%d targets, %.0f disks each: %d anycast; %d unicast, %.0f%% decided by the witness, the rest by the split scan; %.0f pair tests per target",
				st.Analyzed, float64(disks)/float64(st.Analyzed), anycast, unicast,
				100*float64(s.Witness)/float64(unicast), float64(s.PairTests)/float64(st.Analyzed))
		})
	}
}

// TestDetectZeroAllocs pins the unicast verdict's allocation count through
// the analyzer's per-worker scratch, for a target the witness decides and
// one that needs the split scan.
func TestDetectZeroAllocs(t *testing.T) {
	vps := platform.PlanetLab(cities.Default()).VPs()[:40]
	// Target 0 is heard at 250 ms everywhere: every disk is the globe.
	// Target 1 is a host 400 km off VP 0, heard everywhere at the fiber
	// delay plus 50 km: the VPs beyond it do not reach back to the
	// nearest VP's center, which only the split scan can see past.
	host := geo.Destination(vps[0].Loc, 90, 400)
	run := handRun(1, vps, 2, func(v, tgt int) int32 {
		if tgt == 1 {
			return int32(2 * (geo.DistanceKm(vps[v].Loc, host) + 50) / geo.FiberSpeedKmPerMs * 1000)
		}
		return 250_000
	})
	cp := NewCampaign(CampaignConfig{})
	if err := cp.FoldRun(run); err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(cities.Default(), AnalyzerConfig{})
	a.bind(cp.Combined())
	s, st := a.newScan(), AnalyzerStats{}
	for tgt, path := range []*int64{&s.Witness, &s.Split} {
		if a.detect(s, tgt, false, &st) || *path != 1 { // also grows the scratch
			t.Fatalf("target %d: fixture broken (anycast, or witness %d and split %d)", tgt, s.Witness, s.Split)
		}
		if n := testing.AllocsPerRun(100, func() { a.detect(s, tgt, false, &st) }); n != 0 {
			t.Errorf("target %d: %v allocs per unicast verdict, want 0", tgt, n)
		}
	}
}
