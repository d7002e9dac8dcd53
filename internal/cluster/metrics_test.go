package cluster

import (
	"context"
	"strings"
	"testing"

	"anycastmap/internal/census"
	"anycastmap/internal/obs"
)

// The coordinator's metric counters must track Stats exactly: both are
// bumped at the same call sites, and the exposition is the scrapeable
// form of the struct.
func TestCoordinatorMetricsMatchStats(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)

	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{
		Campaign: cp, Targets: h.Targets(), Census: testCensusCfg(), World: cfg, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewHarness(coord, HarnessConfig{Agents: 3, Agent: AgentConfig{World: w, Capacity: 2}})
	if err != nil {
		coord.Close()
		t.Fatal(err)
	}
	defer fleet.Close()
	for r, set := range vps {
		if _, err := coord.ExecuteRound(context.Background(), uint64(r+1), set); err != nil {
			t.Fatalf("distributed round %d: %v", r+1, err)
		}
	}

	// Sample Stats and the metrics before closing the fleet: the close
	// itself drops agents, which keeps bumping AgentsLost.
	stats := coord.Stats()
	checks := []struct {
		name string
		c    *obs.Counter
		want int
	}{
		{"AgentsJoined", m.AgentsJoined, stats.AgentsJoined},
		{"AgentsLost", m.AgentsLost, stats.AgentsLost},
		{"Leases", m.Leases, stats.Leases},
		{"Units", m.Units, stats.Units},
		{"ReLeases", m.ReLeases, stats.ReLeases},
		{"LeaseExpiries", m.LeaseExpiries, stats.Expired},
		{"LateFrames", m.LateFrames, stats.LateFrames},
		{"FramesFolded", m.FramesFolded, stats.FramesFolded},
	}
	for _, c := range checks {
		if got := c.c.Value(); got != uint64(c.want) {
			t.Errorf("%s metric = %d, stats = %d", c.name, got, c.want)
		}
	}
	if stats.AgentsJoined != 3 || stats.FramesFolded == 0 || stats.Units <= stats.Leases {
		t.Fatalf("run shape unexpected: %+v", stats)
	}
	if got := m.ShardFoldSeconds.Count(); got != uint64(stats.FramesFolded) {
		t.Errorf("ShardFoldSeconds count = %d, frames folded = %d", got, stats.FramesFolded)
	}
	if live := m.AgentsLive.Value(); live != float64(stats.AgentsJoined-stats.AgentsLost) {
		t.Errorf("AgentsLive = %v, want %d", live, stats.AgentsJoined-stats.AgentsLost)
	}

	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"anycastmap_cluster_agents_joined_total 3",
		"anycastmap_cluster_frames_folded_total",
		"anycastmap_cluster_leases_total",
		"anycastmap_cluster_units_total",
		"anycastmap_cluster_shard_fold_seconds_count",
	} {
		if !strings.Contains(text.String(), series) {
			t.Errorf("exposition missing %q", series)
		}
	}
}
