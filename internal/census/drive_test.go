package census

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

// TestDriveRunsPastAFailedRound: with one attempt per vantage point, a
// crash fails round 1 of 2. The drive still runs round 2, keeps round 1's
// surviving rows, analyzes the combination of both, and returns an error
// that names round 1 and not round 2.
func TestDriveRunsPastAFailedRound(t *testing.T) {
	w, h, _, _, _ := testbed(t)
	db := cities.Default()
	plan := faultPlan(t, netsim.FaultConfig{Seed: 1213, CrashFraction: 0.4, CrashStickiness: 1})
	pool := platform.PlanetLab(db).Sample(60, 5)
	r1 := pool[:30]
	healthy1, _, crashed1 := predict(r1, plan, 1)
	r2, _, _ := predict(pool[30:], plan, 2)
	if len(crashed1) == 0 || len(healthy1) == 0 || len(r2) == 0 {
		t.Fatalf("plan lacks variety: round 1 %d healthy, %d crashed; round 2 %d healthy", len(healthy1), len(crashed1), len(r2))
	}

	cp := NewCampaign(CampaignConfig{Census: Config{Seed: 9, MaxAttempts: 1, Workers: 2}})
	outcomes, rep, err := cp.Drive(context.Background(), Drive{Executor: cp.Local(w.WithFaults(plan), h, nil, PipelineConfig{SpanTargets: 64}),
		First: 1, Schedule: [][]platform.VP{r1, r2}})
	if err == nil || !strings.Contains(err.Error(), "census 1: ") || strings.Contains(err.Error(), "census 2: ") {
		t.Fatalf("drive error %v, want one naming round 1 alone", err)
	}
	if len(rep.Rounds) != 2 || len(rep.Rounds[0].Health.Quarantined) != len(crashed1) ||
		rep.Rounds[1].Health.Degraded() || rep.Rounds[1].VPs != len(r2) {
		t.Fatalf("rounds %+v, want round 1 to quarantine %d VPs and round 2 to run its %d clean", rep.Rounds, len(crashed1), len(r2))
	}
	c := cp.Combined()
	slot := map[string]int{}
	for i, vp := range c.VPs {
		slot[vp.Name] = i
	}
	for _, vp := range healthy1 {
		i, ok := slot[vp.Name]
		if !ok || !slices.ContainsFunc(c.RTTus[i], func(v int32) bool { return v != NoSample }) {
			t.Fatalf("round 1's surviving VP %s has no row in the combination", vp.Name)
		}
	}
	if rep.Analysis.Analyzed == 0 || !reflect.DeepEqual(outcomes, AnalyzeAll(db, c, core.Options{}, 2, 0)) {
		t.Fatalf("drive analyzed %d targets into %d outcomes, not the combination of both rounds", rep.Analysis.Analyzed, len(outcomes))
	}
}
