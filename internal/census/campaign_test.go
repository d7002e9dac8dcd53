package census

import (
	"bytes"
	"testing"

	"anycastmap/internal/netsim"
	"anycastmap/internal/prober"
)

// TestFoldRunMatchesCombine folds the testbed rounds through a Campaign
// and checks the result cell-for-cell against the batch Combine of the
// same runs, plus the greylist union and the health bookkeeping.
func TestFoldRunMatchesCombine(t *testing.T) {
	_, _, _, r1, r2 := testbed(t)
	batch, err := Combine(r1, r2)
	if err != nil {
		t.Fatal(err)
	}

	cp := NewCampaign(CampaignConfig{})
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
