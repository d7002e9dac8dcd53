package census

import (
	"bytes"
	"context"
	"testing"

	"anycastmap/internal/netsim"
	"anycastmap/internal/prober"
)

// TestFoldRunMatchesCombine folds the testbed rounds through a Campaign
// and checks the result cell-for-cell against the batch Combine of the
// same runs, plus the greylist union and the retained-run bookkeeping.
func TestFoldRunMatchesCombine(t *testing.T) {
	_, _, _, r1, r2 := testbed(t)
	batch, err := Combine(r1, r2)
	if err != nil {
		t.Fatal(err)
	}

	cp := NewCampaign(CampaignConfig{FoldWorkers: 3, ShardTargets: 97, RetainRuns: true})
	if cp.Combined() != nil {
		t.Fatal("empty campaign has a combined matrix")
	}
	for _, r := range []*Run{r1, r2} {
		if err := cp.FoldRun(r); err != nil {
			t.Fatal(err)
		}
	}
	got := cp.Combined()

	if got.Rounds != batch.Rounds {
		t.Fatalf("rounds %d, want %d", got.Rounds, batch.Rounds)
	}
	if len(got.VPs) != len(batch.VPs) {
		t.Fatalf("VP union %d, want %d", len(got.VPs), len(batch.VPs))
	}
	for i := range got.VPs {
		if got.VPs[i] != batch.VPs[i] {
			t.Fatalf("VP order diverges at %d: %v vs %v", i, got.VPs[i], batch.VPs[i])
		}
	}
	for v := range got.RTTus {
		if !bytes.Equal(int32Bytes(got.RTTus[v]), int32Bytes(batch.RTTus[v])) {
			t.Fatalf("row %d differs from batch Combine", v)
		}
	}

	union := prober.NewGreylist()
	union.Merge(r1.Greylist)
	union.Merge(r2.Greylist)
	if cp.Greylist().Len() != union.Len() {
		t.Fatalf("greylist union %d, want %d", cp.Greylist().Len(), union.Len())
	}
	for ip, kind := range union.Snapshot() {
		if got, ok := cp.Greylist().Snapshot()[ip]; !ok || got != kind {
			t.Fatalf("greylist union missing %v (%d)", ip, kind)
		}
	}

	if len(cp.Runs()) != 2 {
		t.Fatalf("RetainRuns kept %d runs", len(cp.Runs()))
	}
	if cp.Health().Rounds != 2 {
		t.Fatalf("campaign health folded %d rounds", cp.Health().Rounds)
	}
}

func int32Bytes(row []int32) []byte {
	out := make([]byte, 0, len(row)*4)
	for _, v := range row {
		out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return out
}

// TestFoldRunRejectsDivergentTargets mirrors Combine's target-list guard.
func TestFoldRunRejectsDivergentTargets(t *testing.T) {
	_, _, _, r1, _ := testbed(t)
	cp := NewCampaign(CampaignConfig{})
	if err := cp.FoldRun(r1); err != nil {
		t.Fatal(err)
	}
	short := &Run{Targets: r1.Targets[:1], VPs: r1.VPs, RTTus: r1.RTTus,
		Greylist: prober.NewGreylist()}
	if err := cp.FoldRun(short); err == nil {
		t.Error("mismatched target count accepted")
	}
	diverged := &Run{Targets: append([]netsim.IP(nil), r1.Targets...), VPs: r1.VPs,
		RTTus: r1.RTTus, Greylist: prober.NewGreylist()}
	diverged.Targets[3]++
	if err := cp.FoldRun(diverged); err == nil {
		t.Error("diverged target list accepted")
	}
}

// TestCampaignDiscardsRuns checks the memory contract: without
// RetainRuns, the campaign keeps no reference to folded runs.
func TestCampaignDiscardsRuns(t *testing.T) {
	_, _, _, r1, r2 := testbed(t)
	cp := NewCampaign(CampaignConfig{})
	for _, r := range []*Run{r1, r2} {
		if err := cp.FoldRun(r); err != nil {
			t.Fatal(err)
		}
	}
	if cp.Runs() != nil {
		t.Fatal("campaign retained runs without RetainRuns")
	}
}

// TestCampaignOnRunHook checks the per-round hook sees every run, in
// order, after it folded.
func TestCampaignOnRunHook(t *testing.T) {
	_, _, _, r1, r2 := testbed(t)
	var seen []uint64
	cp := NewCampaign(CampaignConfig{OnRun: func(r *Run) error {
		seen = append(seen, r.Round)
		return nil
	}})
	for _, r := range []*Run{r1, r2} {
		if err := cp.FoldRun(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 2 || seen[0] != r1.Round || seen[1] != r2.Round {
		t.Fatalf("hook saw rounds %v", seen)
	}
}

// TestCampaignExecuteRound runs a streaming round end-to-end and checks
// the summary against the folded state.
func TestCampaignExecuteRound(t *testing.T) {
	w, h, vps, _, _ := testbed(t)
	cp := NewCampaign(CampaignConfig{Census: Config{Seed: 9, RetryBackoff: -1}})
	sum, err := cp.ExecuteRound(context.Background(), w, vps[:12], h, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.VPs != 12 || sum.Probes == 0 || sum.EchoTargets == 0 {
		t.Fatalf("implausible summary %+v", sum)
	}
	c := cp.Combined()
	if c == nil || len(c.VPs) != 12 || c.Rounds != 1 {
		t.Fatal("round did not fold")
	}
}

// TestCombinedEchoTargetsMemoized pins the satellite: the memoized count
// equals a fresh scan.
func TestCombinedEchoTargetsMemoized(t *testing.T) {
	_, _, _, r1, r2 := testbed(t)
	c, _ := Combine(r1, r2)
	want := 0
	for ti := range c.Targets {
		for v := range c.VPs {
			if c.RTTus[v][ti] >= 0 {
				want++
				break
			}
		}
	}
	if got := c.EchoTargets(); got != want {
		t.Fatalf("EchoTargets = %d, want %d", got, want)
	}
	if got := c.EchoTargets(); got != want {
		t.Fatalf("memoized EchoTargets = %d, want %d", got, want)
	}
}
