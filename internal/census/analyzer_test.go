package census

import (
	"reflect"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// handRun builds a one-round Run over real vantage-point locations with a
// hand-written RTT matrix (microseconds; -1 = no sample), so tests control
// exactly which combined cells improve between rounds.
func handRun(round uint64, vps []platform.VP, nTargets int, rtt func(v, t int) int32) *Run {
	targets := make([]netsim.IP, nTargets)
	for t := range targets {
		targets[t] = netsim.IP(10<<24 + t<<8 + 1)
	}
	rttus := make([][]int32, len(vps))
	for v := range vps {
		row := make([]int32, nTargets)
		for t := range row {
			row[t] = rtt(v, t)
		}
		rttus[v] = row
	}
	return &Run{Round: round, VPs: vps, Targets: targets, RTTus: rttus, Greylist: prober.NewGreylist()}
}

// TestAnalyzerSingleWorkerStaticPath pins the workers==1 fallback: one
// effective worker takes the static-chunk path (no work-stealing cursor),
// and its outcomes and engine counters are indistinguishable from the
// multi-worker pool's — across target-list sizes from a single target up
// to the full list, the shapes where a chunking bug would double-analyze or
// skip work.
func TestAnalyzerSingleWorkerStaticPath(t *testing.T) {
	vps := platform.PlanetLab(cities.Default()).VPs()[:10]
	const nT = 257 // a prime, so no chunk width divides it evenly
	rtt := func(v, t int) int32 {
		if t%5 == 0 && (v == t%3 || v == 9-t%4) {
			return 800 + int32(t)
		}
		return 25_000 + int32(v*131+t)*7
	}

	run := func(workers int, sizes []int) (*Analyzer, []Outcome) {
		cp := NewCampaign(CampaignConfig{})
		an := NewAnalyzer(cities.Default(), AnalyzerConfig{Workers: workers})
		if err := cp.FoldRun(handRun(1, vps, nT, rtt)); err != nil {
			t.Fatal(err)
		}
		all := make([]int, nT)
		for i := range all {
			all[i] = i
		}
		an.Update(cp.Combined(), all)
		// Re-analyze hand-picked target lists of awkward sizes through the
		// same engine; results must stay self-consistent.
		for _, sz := range sizes {
			list := make([]int, sz)
			for i := range list {
				list[i] = (i * 37) % nT
			}
			an.Update(cp.Combined(), list)
		}
		return an, an.Outcomes()
	}

	sizes := []int{1, 2, nT / 2, nT}
	anSeq, seq := run(1, sizes)
	anPool, pool := run(4, sizes)
	if !reflect.DeepEqual(seq, pool) {
		t.Fatalf("workers=1 static path outcomes diverge from workers=4 pool:\n got %d outcomes\nwant %d outcomes", len(seq), len(pool))
	}
	if anSeq.Stats().Analyzed != anPool.Stats().Analyzed {
		t.Fatalf("analyzed counters diverge: workers=1 %d, workers=4 %d",
			anSeq.Stats().Analyzed, anPool.Stats().Analyzed)
	}
	if !reflect.DeepEqual(seq, AnalyzeAll(cities.Default(), func() *Combined {
		cp := NewCampaign(CampaignConfig{})
		if err := cp.FoldRun(handRun(1, vps, nT, rtt)); err != nil {
			t.Fatal(err)
		}
		return cp.Combined()
	}(), core.Options{}, 2, 1)) {
		t.Fatal("workers=1 outcomes diverge from single-worker batch AnalyzeAll")
	}
}
