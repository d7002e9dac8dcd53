package cluster

import (
	"context"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// The cluster testbed: a small deterministic world, a pruned hitlist,
// and two per-round vantage point sets (the second overlapping the
// first, so round 2 registers new VPs mid-campaign).
var (
	ctbOnce sync.Once
	ctbCfg  netsim.Config
	ctbW    *netsim.World
	ctbH    *hitlist.Hitlist
	ctbVPs  [][]platform.VP
)

func clusterTestbed(t *testing.T) (netsim.Config, *netsim.World, *hitlist.Hitlist, [][]platform.VP) {
	t.Helper()
	ctbOnce.Do(func() {
		ctbCfg = netsim.DefaultConfig()
		ctbCfg.Unicast24s = 3000
		ctbW = netsim.New(ctbCfg)
		ctbH = hitlist.FromWorld(ctbW).PruneNeverAlive()
		pl := platform.PlanetLab(cities.Default())
		ctbVPs = [][]platform.VP{pl.Sample(24, 1), pl.Sample(20, 2)}
	})
	return ctbCfg, ctbW, ctbH, ctbVPs
}

// testCensusCfg disables the retry backoff so re-leases are immediate.
func testCensusCfg() census.Config {
	return census.Config{Seed: 9, RetryBackoff: -1}
}

// singleProcessReference runs the rounds through the in-process
// Campaign path against a fault-free world.
func singleProcessReference(t *testing.T, w *netsim.World, h *hitlist.Hitlist, vps [][]platform.VP) *census.Campaign {
	t.Helper()
	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	for r, set := range vps {
		if _, err := cp.ExecuteRoundPipelined(context.Background(), w, set, h, nil, uint64(r+1), census.PipelineConfig{}); err != nil {
			t.Fatalf("single-process round %d: %v", r+1, err)
		}
	}
	return cp
}

// distributedRun executes the same rounds across a harness fleet and
// returns the campaign plus the harness (closed) and coordinator stats.
func distributedRun(t *testing.T, ccfg Config, hcfg HarnessConfig, vps [][]platform.VP) (*census.Campaign, Stats, int) {
	t.Helper()
	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg.Census})
	ccfg.Campaign = cp
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(coord, hcfg)
	if err != nil {
		coord.Close()
		t.Fatal(err)
	}
	for r, set := range vps {
		if _, err := coord.ExecuteRound(context.Background(), uint64(r+1), set); err != nil {
			h.Close()
			t.Fatalf("distributed round %d: %v", r+1, err)
		}
	}
	deaths := h.Deaths()
	stats := coord.Stats()
	if err := h.Close(); err != nil {
		t.Fatalf("harness close: %v", err)
	}
	return cp, stats, deaths
}

// assertIdentical holds the distributed campaign to byte-identity with
// the single-process one: combined rows, greylist, and analysis
// outcomes.
func assertIdentical(t *testing.T, want, got *census.Campaign) {
	t.Helper()
	cw, cg := want.Combined(), got.Combined()
	if cw == nil || cg == nil {
		t.Fatal("campaign missing combined matrix")
	}
	if !reflect.DeepEqual(cw.VPs, cg.VPs) {
		t.Fatal("VP union diverges")
	}
	if !reflect.DeepEqual(cw.Targets, cg.Targets) {
		t.Fatal("target lists diverge")
	}
	if cw.Rounds != cg.Rounds {
		t.Fatalf("rounds %d vs %d", cw.Rounds, cg.Rounds)
	}
	for v := range cw.RTTus {
		if !reflect.DeepEqual(cw.RTTus[v], cg.RTTus[v]) {
			t.Fatalf("combined row %d (%s) diverges", v, cw.VPs[v].Name)
		}
	}
	if !reflect.DeepEqual(want.Greylist().Snapshot(), got.Greylist().Snapshot()) {
		t.Fatal("greylists diverge")
	}
	db := cities.Default()
	ow := census.AnalyzeAll(db, cw, core.Options{}, 2, 0)
	og := census.AnalyzeAll(db, cg, core.Options{}, 2, 0)
	if !reflect.DeepEqual(ow, og) {
		t.Fatal("analysis outcomes diverge")
	}
}

func TestClusterMatchesSingleProcess(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ref := singleProcessReference(t, w, h, vps)

	for _, agents := range []int{1, 4, 7} {
		cp, stats, deaths := distributedRun(t,
			Config{
				Targets:      h.Targets(),
				Census:       testCensusCfg(),
				World:        cfg,
				ShardTargets: 700,
			},
			HarnessConfig{
				Agents: agents,
				Agent:  AgentConfig{World: w, Capacity: 2},
			},
			vps)
		assertIdentical(t, ref, cp)
		if deaths != 0 {
			t.Fatalf("%d agents: %d unexpected deaths", agents, deaths)
		}
		if stats.AgentsJoined != agents {
			t.Fatalf("%d agents: %d joined", agents, stats.AgentsJoined)
		}
		if stats.ReLeases != 0 || stats.Expired != 0 {
			t.Fatalf("%d agents: unexpected recovery traffic: %+v", agents, stats)
		}
	}
}

// The TCP loopback transport must behave exactly like the pipe: same
// protocol, same bytes, real sockets. Agents rebuild the world from the
// welcome message here (World: nil), exercising the true multi-process
// path.
func TestClusterTCPLoopback(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ref := singleProcessReference(t, w, h, vps)

	cp, stats, _ := distributedRun(t,
		Config{
			Targets:      h.Targets(),
			Census:       testCensusCfg(),
			World:        cfg,
			ShardTargets: 1000,
		},
		HarnessConfig{
			Agents:    4,
			Transport: "tcp",
			Agent:     AgentConfig{Capacity: 2},
		},
		vps)
	assertIdentical(t, ref, cp)
	if stats.FramesFolded == 0 {
		t.Fatal("no frames folded over TCP")
	}
}

// A blacklist shipped in the welcome must shape agent probing exactly as
// it shapes the single-process path.
func TestClusterHonoursBlacklist(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	black, err := prober.BuildBlacklist(w, vps[0][0], h.Targets(), prober.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	targets := h.Without(black.Targets())

	ref := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	if _, err := ref.ExecuteRoundPipelined(context.Background(), w, vps[0], targets, black, 1, census.PipelineConfig{}); err != nil {
		t.Fatal(err)
	}

	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign:     cp,
		Targets:      targets.Targets(),
		Blacklist:    black,
		Census:       testCensusCfg(),
		World:        cfg,
		ShardTargets: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHarness(coord, HarnessConfig{Agents: 3, Agent: AgentConfig{World: w}})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	if _, err := coord.ExecuteRound(context.Background(), 1, vps[0]); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, ref, cp)
}

// Agent churn: every agent is killed after each few row frames and
// respawned. The coordinator re-leases the lost shards; because replies
// are pure functions of (seed, VP, target, round) and the fold is a
// min, the final state is still byte-identical. The retry budget is
// raised so repeated churn cannot quarantine a vantage point.
func TestClusterSurvivesAgentChurn(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ccfg := testCensusCfg()
	ccfg.MaxAttempts = 50
	refCp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	for r, set := range vps {
		if _, err := refCp.ExecuteRoundPipelined(context.Background(), w, set, h, nil, uint64(r+1), census.PipelineConfig{}); err != nil {
			t.Fatal(err)
		}
	}

	cp, stats, deaths := distributedRun(t,
		Config{
			Targets:      h.Targets(),
			Census:       ccfg,
			World:        cfg,
			ShardTargets: 400,
			Tick:         5 * time.Millisecond,
		},
		HarnessConfig{
			Agents:          4,
			Agent:           AgentConfig{World: w},
			Respawn:         true,
			KillAfterFrames: 6,
		},
		vps)
	assertIdentical(t, refCp, cp)
	if deaths == 0 {
		t.Fatal("churn injected no deaths")
	}
	if stats.ReLeases == 0 {
		t.Fatal("no shards were re-leased despite churn")
	}
	if q := cp.Health().Quarantined; len(q) != 0 {
		t.Fatalf("churn quarantined VPs: %v", q)
	}
}

// hungAgent registers and accepts leases but never answers them: the
// coordinator must expire its lease, presume it dead, and re-lease the
// shard to a live agent.
func hungAgent(t *testing.T, coord *Coordinator) {
	t.Helper()
	coordSide, agentSide := net.Pipe()
	if err := coord.Attach(coordSide); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer agentSide.Close()
		if _, err := agentSide.Write([]byte(streamMagic)); err != nil {
			return
		}
		hello, _ := encodeMsg(&helloMsg{Name: "hung", Capacity: 4})
		if _, err := agentSide.Write(appendFrame(nil, frameHello, hello)); err != nil {
			return
		}
		if err := readMagic(agentSide); err != nil {
			return
		}
		for { // swallow frames forever, answering nothing
			if _, _, err := readFrame(agentSide, 0); err != nil {
				return
			}
		}
	}()
}

func TestHungAgentLeaseExpires(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ref := singleProcessReference(t, w, h, vps[:1])

	ccfg := testCensusCfg()
	ccfg.MaxAttempts = 50
	cp := census.NewCampaign(census.CampaignConfig{Census: ccfg})
	coord, err := NewCoordinator(Config{
		Campaign:     cp,
		Targets:      h.Targets(),
		Census:       ccfg,
		World:        cfg,
		ShardTargets: 700,
		LeaseTTL:     150 * time.Millisecond,
		Tick:         10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hungAgent(t, coord)
	hs, err := NewHarness(coord, HarnessConfig{Agents: 2, Agent: AgentConfig{World: w}})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()

	if _, err := coord.ExecuteRound(context.Background(), 1, vps[0]); err != nil {
		t.Fatalf("round with hung agent: %v", err)
	}
	stats := coord.Stats()
	if stats.Expired == 0 {
		t.Fatalf("hung agent's leases never expired: %+v", stats)
	}
	assertIdentical(t, ref, cp)
}

// A round executed with no agents at all must abort after the grace
// period instead of hanging forever.
func TestAgentlessRoundAborts(t *testing.T) {
	cfg, _, h, vps := clusterTestbed(t)
	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign:   cp,
		Targets:    h.Targets(),
		Census:     testCensusCfg(),
		World:      cfg,
		AgentGrace: 100 * time.Millisecond,
		Tick:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.ExecuteRound(context.Background(), 1, vps[0]); err == nil {
		t.Fatal("agentless round did not abort")
	}
}

func TestExecuteRoundContextCancel(t *testing.T) {
	cfg, _, h, vps := clusterTestbed(t)
	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign: cp,
		Targets:  h.Targets(),
		Census:   testCensusCfg(),
		World:    cfg,
		Tick:     10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := coord.ExecuteRound(ctx, 1, vps[0]); err == nil {
		t.Fatal("cancelled round returned no error")
	}
}

// Completion must not depend on shard width relative to fleet size:
// one wide shard per VP, or hundreds of narrow ones.
func TestClusterShardWidthExtremes(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	ref := singleProcessReference(t, w, h, vps[:1])
	for _, width := range []int{0, 97, math.MaxInt} {
		cp, _, _ := distributedRun(t,
			Config{
				Targets:      h.Targets(),
				Census:       testCensusCfg(),
				World:        cfg,
				ShardTargets: width,
			},
			HarnessConfig{Agents: 4, Agent: AgentConfig{World: w, Capacity: 3}},
			vps[:1])
		assertIdentical(t, ref, cp)
	}
}
