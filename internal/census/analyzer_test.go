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

// assertIncrementalMatchesBatch deep-compares the analyzer's outcomes with
// a from-scratch AnalyzeAll over the same combined matrix.
func assertIncrementalMatchesBatch(t *testing.T, cp *Campaign, workers int) {
	t.Helper()
	got := cp.Outcomes()
	want := AnalyzeAll(cities.Default(), cp.Combined(), core.Options{}, 2, workers)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental outcomes diverge from batch:\n got %d outcomes %+v\nwant %d outcomes %+v",
			len(got), got, len(want), want)
	}
}

// TestAnalyzerDirtyCleanDirty walks one target through dirty → clean →
// dirty across three rounds: round 2 re-reports every sample at a worse
// RTT (no combined cell improves, so nothing about it is dirty), round 3
// improves one cell. The clean round must skip the target entirely and
// every round must still match batch analysis bit for bit.
func TestAnalyzerDirtyCleanDirty(t *testing.T) {
	vps := platform.PlanetLab(cities.Default()).VPs()[:8]
	const nT = 10
	const hot = 4 // the target whose lifecycle the test tracks

	// Round 1: every VP answers every target at 40 ms except the hot
	// target, which two far-apart VPs see at ~1 ms — a clean anycast
	// proof.
	base := func(v, t int) int32 {
		if t == hot && (v == 0 || v == len(vps)-1) {
			return 1_000
		}
		return 40_000
	}
	cp := NewCampaign(CampaignConfig{})
	an := NewAnalyzer(cities.Default(), AnalyzerConfig{Workers: 2})
	cp.AttachAnalyzer(an)

	if err := cp.FoldRun(handRun(1, vps, nT, base)); err != nil {
		t.Fatal(err)
	}
	dirty := cp.TakeDirty()
	if len(dirty) != nT {
		t.Fatalf("first fold dirtied %d targets, want all %d", len(dirty), nT)
	}
	an.Update(cp.Combined(), dirty)
	assertIncrementalMatchesBatch(t, cp, 2)
	if got := an.Stats().Analyzed; got != nT {
		t.Fatalf("round 1 analyzed %d targets, want %d", got, nT)
	}

	// Round 2: everything answers 5 µs slower — min-combine improves no
	// cell, so no target is dirty, least of all the hot one.
	if err := cp.FoldRun(handRun(2, vps, nT, func(v, t int) int32 { return base(v, t) + 5 })); err != nil {
		t.Fatal(err)
	}
	dirty = cp.TakeDirty()
	if len(dirty) != 0 {
		t.Fatalf("worse-only round dirtied %v, want none", dirty)
	}
	an.Update(cp.Combined(), dirty)
	assertIncrementalMatchesBatch(t, cp, 2)
	if got := an.Stats().Analyzed; got != nT {
		t.Fatalf("clean round re-analyzed targets: total %d, want still %d", got, nT)
	}

	// Round 3: one VP sees the hot target faster — it (and only it) goes
	// dirty again, and its cached anycast certificate should revalidate
	// without a fresh scan.
	hitsBefore := an.Stats().CertHits
	if err := cp.FoldRun(handRun(3, vps, nT, func(v, t int) int32 {
		if t == hot && v == 0 {
			return 500
		}
		return base(v, t) + 5
	})); err != nil {
		t.Fatal(err)
	}
	dirty = cp.TakeDirty()
	if len(dirty) != 1 || dirty[0] != hot {
		t.Fatalf("round 3 dirty set %v, want [%d]", dirty, hot)
	}
	an.Update(cp.Combined(), dirty)
	assertIncrementalMatchesBatch(t, cp, 2)
	if got := an.Stats().Analyzed; got != nT+1 {
		t.Fatalf("round 3 analyzed total %d, want %d", got, nT+1)
	}
	if an.Stats().CertHits != hitsBefore+1 {
		t.Fatalf("shrunk anycast pair did not revalidate: hits %d → %d", hitsBefore, an.Stats().CertHits)
	}
}

// TestAnalyzerNewVPAppends folds a round with two additional vantage
// points: the fresh rows dirty every target they answered and the
// analyzer's VP distance matrix grows, still matching batch.
func TestAnalyzerNewVPAppends(t *testing.T) {
	vps := platform.PlanetLab(cities.Default()).VPs()[:8]
	const nT = 12
	rtt1 := func(v, t int) int32 {
		if t%3 == 0 && (v == 0 || v == 5) {
			return 900
		}
		return 30_000 + int32(t)*11
	}
	cp := NewCampaign(CampaignConfig{})
	an := NewAnalyzer(cities.Default(), AnalyzerConfig{Workers: 3})
	cp.AttachAnalyzer(an)
	if err := cp.FoldRun(handRun(1, vps[:6], nT, rtt1)); err != nil {
		t.Fatal(err)
	}
	if n := cp.AnalyzeDirty(); n != nT {
		t.Fatalf("first fold analyzed %d, want %d", n, nT)
	}
	assertIncrementalMatchesBatch(t, cp, 3)

	// Round 2 probes from all 8 VPs; the two new rows answer only the
	// even targets.
	if err := cp.FoldRun(handRun(2, vps, nT, func(v, t int) int32 {
		if v >= 6 {
			if t%2 == 0 {
				return 1_200
			}
			return noSample
		}
		return rtt1(v, t) + 7
	})); err != nil {
		t.Fatal(err)
	}
	n := cp.AnalyzeDirty()
	if want := nT / 2; n != want {
		t.Fatalf("new-VP round analyzed %d, want the %d even targets", n, want)
	}
	assertIncrementalMatchesBatch(t, cp, 3)
}

// TestAnalyzerSingleWorkerStaticPath pins the workers==1 fallback: one
// effective worker takes the static-chunk path (no work-stealing cursor),
// and its outcomes and engine counters are indistinguishable from the
// multi-worker pool's — across dirty-set sizes from a single target up to
// the full list, the shapes where a chunking bug would double-analyze or
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

	run := func(workers int, dirtySizes []int) (*Analyzer, []Outcome) {
		cp := NewCampaign(CampaignConfig{})
		an := NewAnalyzer(cities.Default(), AnalyzerConfig{Workers: workers})
		cp.AttachAnalyzer(an)
		if err := cp.FoldRun(handRun(1, vps, nT, rtt)); err != nil {
			t.Fatal(err)
		}
		an.Update(cp.Combined(), cp.TakeDirty())
		// Re-analyze hand-picked dirty sets of awkward sizes through the
		// same engine; results must stay self-consistent.
		for _, sz := range dirtySizes {
			dirty := make([]int, sz)
			for i := range dirty {
				dirty[i] = (i * 37) % nT
			}
			an.Update(cp.Combined(), dirty)
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
