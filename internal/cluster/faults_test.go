package cluster

import (
	"context"
	"reflect"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
)

// The agent-loss acceptance test of ISSUE 6: a deterministic crash plan
// kills well over 20% of the fleet mid-census (each injected VP crash
// takes its whole agent down, ExitOnCrash), the harness respawns them,
// the coordinator re-leases the lost shards — and the final combined
// matrix, greylist, and analysis outcomes are byte-identical to a
// zero-fault single-process run.
//
// The identity is not luck: netsim reply draws are pure functions of
// (seed, VP, target, round) — crash faults abort runs early but never
// change a draw — and a non-sticky crashed VP recovers at attempt 1, so
// every re-leased shard reproduces exactly the samples the zero-fault
// run would have had. (Flap/burst faults do NOT have this property:
// their loss windows depend on the run length, which sharding changes.)
func TestAgentLossReLease(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)

	// Reference: zero faults, single process.
	ref := singleProcessReference(t, w, h, vps)

	fcfg := netsim.FaultConfig{Seed: 77, CrashFraction: 0.3}
	plan, err := netsim.NewFaultPlan(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count the crash events the plan schedules: one agent death each.
	planned := 0
	for r, set := range vps {
		for _, vp := range set {
			if crashes, sticky := plan.Crashes(vp.ID, uint64(r+1)); crashes {
				if sticky {
					t.Fatal("plan scheduled a sticky crash; stickiness must be 0")
				}
				planned++
			}
		}
	}
	const agents = 5
	if planned < (agents+4)/5 { // ceil(20%)
		t.Fatalf("crash plan only kills %d agents; raise CrashFraction", planned)
	}

	faulty := w.WithFaults(plan)
	cp, stats, deaths := distributedRun(t,
		Config{
			Targets:      h.Targets(),
			Census:       testCensusCfg(),
			World:        cfg,
			Faults:       &fcfg,
			ShardTargets: 500,
			Tick:         5 * time.Millisecond,
		},
		HarnessConfig{
			Agents:  agents,
			Agent:   AgentConfig{World: faulty, Capacity: 1, ExitOnCrash: true},
			Respawn: true,
		},
		vps)

	if deaths != planned {
		t.Fatalf("%d agent deaths, crash plan scheduled %d", deaths, planned)
	}
	if stats.AgentsLost < planned {
		t.Fatalf("coordinator lost %d agents for %d crashes", stats.AgentsLost, planned)
	}
	if stats.ReLeases == 0 {
		t.Fatal("no shards were re-leased after agent loss")
	}
	ch := cp.Health()
	if ch.Retries == 0 || ch.Recovered != planned {
		t.Fatalf("health: retries=%d recovered=%d, want recovered=%d", ch.Retries, ch.Recovered, planned)
	}
	if len(ch.Quarantined) != 0 {
		t.Fatalf("recoverable crashes quarantined VPs: %v", ch.Quarantined)
	}

	assertIdentical(t, ref, cp)
}

// Same crash weather, but agents report the crash as a retryable lease
// failure instead of dying (ExitOnCrash off): no agent is lost, the
// retry machinery alone recovers, and the result is still identical.
func TestVPCrashWithoutAgentLoss(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ref := singleProcessReference(t, w, h, vps)

	fcfg := netsim.FaultConfig{Seed: 77, CrashFraction: 0.3}
	plan, err := netsim.NewFaultPlan(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, stats, deaths := distributedRun(t,
		Config{
			Targets:      h.Targets(),
			Census:       testCensusCfg(),
			World:        cfg,
			Faults:       &fcfg,
			ShardTargets: 500,
			Tick:         5 * time.Millisecond,
		},
		HarnessConfig{
			Agents: 4,
			Agent:  AgentConfig{World: w.WithFaults(plan), Capacity: 2},
		},
		vps)
	if deaths != 0 {
		t.Fatalf("%d agents died with ExitOnCrash off", deaths)
	}
	if stats.AgentsLost != 0 {
		t.Fatalf("coordinator lost %d agents", stats.AgentsLost)
	}
	if stats.ReLeases == 0 {
		t.Fatal("crashed leases were not retried")
	}
	assertIdentical(t, ref, cp)
}

// Sticky crashes exhaust the retry budget: the vantage point must end
// the round quarantined, exactly like the single-process path, and the
// round must still complete for everyone else.
func TestStickyCrashQuarantines(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)

	fcfg := netsim.FaultConfig{Seed: 13, CrashFraction: 0.25, CrashStickiness: 1}
	plan, err := netsim.NewFaultPlan(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, vp := range vps[0] {
		if c, _ := plan.Crashes(vp.ID, 1); c {
			crashed++
		}
	}
	if crashed == 0 {
		t.Fatal("plan crashed nobody; raise CrashFraction")
	}

	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign:     cp,
		Targets:      h.Targets(),
		Census:       testCensusCfg(),
		World:        cfg,
		Faults:       &fcfg,
		ShardTargets: 700,
		Tick:         5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHarness(coord, HarnessConfig{Agents: 3, Agent: AgentConfig{World: w.WithFaults(plan), Capacity: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()

	_, rerr := coord.ExecuteRound(context.Background(), 1, vps[0])
	if rerr == nil {
		t.Fatal("sticky crashes reported no error")
	}
	h1 := cp.Health()
	if len(h1.Quarantined) != crashed {
		t.Fatalf("quarantined %v, plan crashed %d VPs", h1.Quarantined, crashed)
	}
	if got := cp.Combined(); got == nil || got.Rounds != 1 {
		t.Fatal("round did not fold")
	}
}

// The in-process executor and the fleet drive one round scheduler, so
// under the same fault plan — recoverable and sticky crashes together —
// they must agree on everything a round reports, not just on the matrix:
// the summary counts, every vantage point's attempts, recovery,
// quarantine and final error, and the combined rows byte for byte.
func TestExecutorsAgreeUnderFaults(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	fcfg := netsim.FaultConfig{Seed: 1213, CrashFraction: 0.4, CrashStickiness: 0.5}
	plan, err := netsim.NewFaultPlan(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	recovering, sticky := 0, 0
	for _, vp := range vps[0] {
		if crashes, st := plan.Crashes(vp.ID, 1); crashes && st {
			sticky++
		} else if crashes {
			recovering++
		}
	}
	if recovering == 0 || sticky == 0 {
		t.Fatalf("plan lacks variety: %d recovering, %d sticky", recovering, sticky)
	}
	faulty := w.WithFaults(plan)
	const width = 700

	local := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	lsum, lerr := local.ExecuteRoundPipelined(context.Background(), faulty, vps[0], h, nil, 1,
		census.PipelineConfig{SpanTargets: width})

	remote := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign:     remote,
		Targets:      h.Targets(),
		Census:       testCensusCfg(),
		World:        cfg,
		Faults:       &fcfg,
		ShardTargets: width,
		Tick:         5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHarness(coord, HarnessConfig{Agents: 2, Agent: AgentConfig{World: faulty, Capacity: 2}})
	if err != nil {
		coord.Close()
		t.Fatal(err)
	}
	defer hs.Close()
	rsum, rerr := coord.ExecuteRound(context.Background(), 1, vps[0])

	if lerr == nil || rerr == nil || lerr.Error() != rerr.Error() {
		t.Fatalf("round errors differ:\nlocal:  %v\nremote: %v", lerr, rerr)
	}
	if lsum.Probes != rsum.Probes || lsum.EchoTargets != rsum.EchoTargets || lsum.GreylistLen != rsum.GreylistLen {
		t.Fatalf("summaries differ: local %d probes / %d echo / %d grey, remote %d / %d / %d",
			lsum.Probes, lsum.EchoTargets, lsum.GreylistLen, rsum.Probes, rsum.EchoTargets, rsum.GreylistLen)
	}
	if !reflect.DeepEqual(lsum.Health, rsum.Health) {
		t.Fatalf("health differs:\nlocal:  %+v\nremote: %+v", lsum.Health, rsum.Health)
	}
	if got := len(lsum.Health.Quarantined); got != sticky || lsum.Health.Recovered != recovering {
		t.Fatalf("health %s; plan has %d recovering, %d sticky", lsum.Health, recovering, sticky)
	}
	assertIdentical(t, local, remote)
}
