package experiments

import (
	"encoding/csv"
	"os"
	"testing"
)

func TestAblateVPCount(t *testing.T) {
	l := getLab(t)
	r := l.AblateVPCount([]int{40, 120, 250})
	if len(r.Detected24s) != 3 {
		t.Fatal("sweep incomplete")
	}
	// Monotone: more VPs, more detections and more replicas.
	for i := 1; i < len(r.Detected24s); i++ {
		if r.Detected24s[i] < r.Detected24s[i-1] {
			t.Errorf("detections decreased: %v", r.Detected24s)
		}
		if r.Replicas[i] < r.Replicas[i-1] {
			t.Errorf("replicas decreased: %v", r.Replicas)
		}
	}
	// A skeleton platform misses a lot; the full one approaches truth.
	if r.Detected24s[0] >= r.Detected24s[2] {
		t.Error("no VP-count effect at all")
	}
	between(t, "recall at 250 VPs", float64(r.Detected24s[2])/float64(r.Truth24s), 0.7, 1.0)
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestAblateRate(t *testing.T) {
	l := getLab(t)
	r := l.AblateRate([]float64{1000, 12000})
	if r.Dropped[0] != 0 {
		t.Errorf("replies dropped at the slow rate: %d", r.Dropped[0])
	}
	if r.Dropped[1] == 0 {
		t.Error("no drops at 12k pps; the rate-limit model is inert")
	}
	if r.EchoFraction[1] >= r.EchoFraction[0] {
		t.Errorf("fast probing did not reduce yield: %.3f vs %.3f",
			r.EchoFraction[1], r.EchoFraction[0])
	}
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestAblateIteration(t *testing.T) {
	l := getLab(t)
	r := l.AblateIteration()
	if r.Prefixes == 0 {
		t.Fatal("nothing analyzed")
	}
	if r.IteratedReplicas < r.SingleShotReplicas {
		t.Errorf("iteration lost replicas: %d -> %d", r.SingleShotReplicas, r.IteratedReplicas)
	}
	gain := float64(r.IteratedReplicas-r.SingleShotReplicas) / float64(r.SingleShotReplicas)
	between(t, "iteration gain", gain, 0.0, 0.6)
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestAblateMIS(t *testing.T) {
	l := getLab(t)
	r := l.AblateMIS(25)
	if r.Instances < 10 {
		t.Fatalf("only %d instances solved", r.Instances)
	}
	frac := float64(r.EqualCount) / float64(r.Instances)
	between(t, "greedy-optimal fraction", frac, 0.8, 1.0)
	if r.MeanBruteNs <= r.MeanGreedyNs {
		t.Error("brute force should cost more than greedy")
	}
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestFusePlatforms(t *testing.T) {
	l := getLab(t)
	r := l.FusePlatforms(10)
	if r.Prefixes != 10 {
		t.Fatalf("refined %d prefixes, want 10", r.Prefixes)
	}
	if r.RefinedReplicas <= r.PLReplicas {
		t.Errorf("RIPE refinement did not add replicas: %d vs %d", r.RefinedReplicas, r.PLReplicas)
	}
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestLongitudinalCampaign(t *testing.T) {
	getLab(t)
	r := labLongitudinalCampaign()
	if len(r.Rounds) != 3 {
		t.Fatalf("got %d rounds", len(r.Rounds))
	}
	for _, rd := range r.Rounds {
		if rd.Detected24s == 0 {
			t.Errorf("round %d detected nothing", rd.Round)
		}
	}
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestLongitudinal(t *testing.T) {
	getLab(t)
	r := labLongitudinal()
	if len(r.Epochs) != 3 {
		t.Fatalf("got %d epochs", len(r.Epochs))
	}
	// The landscape grows over time and the census tracks it.
	if r.Epochs[2].TrueReplicas <= r.Epochs[0].TrueReplicas {
		t.Error("truth did not grow across epochs")
	}
	if r.Epochs[2].Replicas <= r.Epochs[0].Replicas {
		t.Error("measured replicas did not grow across epochs")
	}
	// Churn is visible but moderate.
	if r.Epochs[1].NewCities == 0 && r.Epochs[2].NewCities == 0 {
		t.Error("no city churn observed")
	}
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestBaselines(t *testing.T) {
	l := getLab(t)
	r := l.Baselines(40)
	if r.DNSTargets == 0 || r.NonDNSTargets == 0 {
		t.Fatalf("sample did not cover both DNS and non-DNS deployments: %+v", r)
	}
	// CHAOS reads identities off the wire: at least as many instances as
	// the latency technique on DNS deployments, never more than truth.
	if r.CHAOSTotal < r.IGreedyTotal {
		t.Errorf("CHAOS (%d) below iGreedy (%d) on DNS targets", r.CHAOSTotal, r.IGreedyTotal)
	}
	if r.CHAOSTotal > r.TruthTotal {
		t.Errorf("CHAOS (%d) exceeds truth (%d)", r.CHAOSTotal, r.TruthTotal)
	}
	if r.CHAOSNonDNSAnswers != 0 {
		t.Errorf("CHAOS answered on %d non-DNS deployments", r.CHAOSNonDNSAnswers)
	}
	// The database matches at most one replica per deployment.
	if r.DBReplicaMatches > r.DBPrefixes {
		t.Errorf("database matched %d replicas over %d prefixes", r.DBReplicaMatches, r.DBPrefixes)
	}
	// CBG: fine on unicast, broken on anycast.
	if r.UnicastTargets == 0 || r.CBGFeasibleUnicast < r.UnicastTargets*8/10 {
		t.Errorf("CBG feasible on only %d/%d unicast targets", r.CBGFeasibleUnicast, r.UnicastTargets)
	}
	if r.CBGFeasibleAnycast > r.AnycastTargets/10 {
		t.Errorf("CBG feasible on %d/%d anycast targets; should almost always fail", r.CBGFeasibleAnycast, r.AnycastTargets)
	}
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestRIPECensus(t *testing.T) {
	getLab(t)
	r := labRIPECensus()
	if r.RIPEDetected <= r.PLSingleDetected {
		t.Errorf("one RIPE census detected %d <= one PlanetLab census's %d",
			r.RIPEDetected, r.PLSingleDetected)
	}
	if r.RIPEDetected > r.Truth24s {
		t.Errorf("RIPE detected %d of %d true deployments?!", r.RIPEDetected, r.Truth24s)
	}
	ripeRecall := float64(r.RIPEDetected) / float64(r.Truth24s)
	between(t, "RIPE recall", ripeRecall, 0.8, 1.0)
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestExportCSV(t *testing.T) {
	l := getLab(t)
	dir := t.TempDir()
	files, err := l.ExportCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 7 {
		t.Fatalf("exported %d files, want 7", len(files))
	}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(fh).ReadAll()
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		// Header plus at least one data row; encoding/csv has already
		// enforced a consistent column count.
		if len(rows) < 2 {
			t.Errorf("%s has only %d rows", f, len(rows))
		}
	}
}
