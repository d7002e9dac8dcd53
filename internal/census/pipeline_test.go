package census

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

// TestPipelinedSurvivesVPCrashes exercises the round engine's failure
// policy through the in-process executor: failed VPs are parked for a
// (real, short) backoff while the workers carry on with the others,
// recoverable crashes converge to the faultless rows (RTT draws are
// attempt-invariant), and sticky crashes quarantine the VP with nothing
// folded (only successful probes fold — unlike ExecuteContext, which
// keeps a quarantined VP's partial sink writes).
func TestPipelinedSurvivesVPCrashes(t *testing.T) {
	w, h, _, _, _ := testbed(t)
	pl := platform.PlanetLab(cities.Default())
	vps := pl.Sample(30, 5)
	const round = 11
	cfg := Config{Seed: 9, MaxAttempts: 3, RetryBackoff: time.Millisecond, Workers: 4}
	pc := PipelineConfig{SpanTargets: 64}

	plan := faultPlan(t, netsim.FaultConfig{Seed: 1213, CrashFraction: 0.4, CrashStickiness: 0.5})
	healthy, recovering, quarantined := predict(vps, plan, round)
	if len(recovering) == 0 || len(quarantined) == 0 {
		t.Fatalf("plan lacks variety: %d recovering, %d quarantined", len(recovering), len(quarantined))
	}

	clean := NewCampaign(CampaignConfig{Census: cfg})
	if _, err := clean.ExecuteRoundPipelined(context.Background(), w, vps, h, nil, round, pc); err != nil {
		t.Fatalf("faultless pipelined round errored: %v", err)
	}

	faulty := NewCampaign(CampaignConfig{Census: cfg})
	sum, err := faulty.ExecuteRoundPipelined(context.Background(), w.WithFaults(plan), vps, h, nil, round, pc)
	if err == nil {
		t.Fatal("pipelined round with quarantined VPs returned no error")
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Errorf("error does not name the quarantine: %v", err)
	}

	hl := sum.Health
	if hl.Round != round || hl.VPs != len(vps) {
		t.Errorf("health identity: %+v", hl)
	}
	if hl.Completed != len(healthy)+len(recovering) {
		t.Errorf("completed = %d, want %d", hl.Completed, len(healthy)+len(recovering))
	}
	if hl.Recovered != len(recovering) {
		t.Errorf("recovered = %d, want %d", hl.Recovered, len(recovering))
	}
	var wantQ []string
	for _, vp := range quarantined {
		wantQ = append(wantQ, vp.Name)
	}
	gotQ := append([]string(nil), hl.Quarantined...)
	sort.Strings(wantQ)
	sort.Strings(gotQ)
	if !reflect.DeepEqual(gotQ, wantQ) {
		t.Fatalf("quarantined = %v, want %v", gotQ, wantQ)
	}
	// Only successful units fold, and a sticky VP never has one: its
	// combined row is empty, not partial.
	if hl.EmptyRows != len(quarantined) {
		t.Errorf("empty rows = %d, want %d", hl.EmptyRows, len(quarantined))
	}

	// Surviving rows are byte-identical to the faultless round's.
	cc, fc := clean.Combined(), faulty.Combined()
	quarNames := make(map[string]bool, len(wantQ))
	for _, name := range wantQ {
		quarNames[name] = true
	}
	for slot, vp := range fc.VPs {
		if quarNames[vp.Name] {
			for ti, v := range fc.RTTus[slot] {
				if v != NoSample {
					t.Fatalf("quarantined VP %s folded a sample at target %d", vp.Name, ti)
				}
			}
			continue
		}
		if !reflect.DeepEqual(fc.RTTus[slot], cc.RTTus[slot]) {
			t.Fatalf("surviving VP %s row differs from the faultless round", vp.Name)
		}
	}
}

// TestPipelinedCancellation: a cancelled context aborts the round without
// deadlocking; the campaign's shard round is still closed so later rounds
// can run.
func TestPipelinedCancellation(t *testing.T) {
	w, h, _, _, _ := testbed(t)
	pl := platform.PlanetLab(cities.Default())
	vps := pl.Sample(8, 3)
	cfg := Config{Seed: 7, RetryBackoff: -1, Workers: 2}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cp := NewCampaign(CampaignConfig{Census: cfg})
	if _, err := cp.ExecuteRoundPipelined(ctx, w, vps, h, nil, 1, PipelineConfig{SpanTargets: 32}); err == nil {
		t.Fatal("cancelled round returned no error")
	}
	// The round must be closed: a fresh round on the same campaign works.
	if _, err := cp.ExecuteRoundPipelined(context.Background(), w, vps, h, nil, 2, PipelineConfig{SpanTargets: 32}); err != nil {
		t.Fatalf("round after cancelled round: %v", err)
	}
}
