package cluster

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"

	"anycastmap/internal/census"
	"anycastmap/internal/obs"
)

// The cluster series read through to Stats: a scrape after a fleet's
// rounds shows each counter Stats holds under its series name, agents_live
// as joined − lost, and one fold-latency observation per folded unit.
func TestCoordinatorMetricsMatchStats(t *testing.T) {
	cfg, w, h, vps := clusterTestbed(t)
	cp := census.NewCampaign(census.CampaignConfig{Census: testCensusCfg()})
	coord, err := NewCoordinator(Config{Campaign: cp, Targets: h.Targets(), Census: testCensusCfg(), World: cfg})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.RegisterMetrics(reg)
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

	// Scrape before closing the fleet: the close itself drops agents,
	// which keeps bumping AgentsLost.
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	stats := coord.Stats()
	if stats.AgentsJoined != 3 || stats.FramesFolded == 0 || stats.Units <= stats.Leases {
		t.Fatalf("run shape unexpected: %+v", stats)
	}
	lines := strings.Split(text.String(), "\n")
	for series, want := range map[string]int{
		"anycastmap_cluster_agents_joined_total":      stats.AgentsJoined,
		"anycastmap_cluster_agents_lost_total":        stats.AgentsLost,
		"anycastmap_cluster_agents_live":              stats.AgentsJoined - stats.AgentsLost,
		"anycastmap_cluster_leases_total":             stats.Leases,
		"anycastmap_cluster_units_total":              stats.Units,
		"anycastmap_cluster_re_leases_total":          stats.ReLeases,
		"anycastmap_cluster_lease_expiries_total":     stats.Expired,
		"anycastmap_cluster_late_frames_total":        stats.LateFrames,
		"anycastmap_cluster_frames_folded_total":      stats.FramesFolded,
		"anycastmap_cluster_shard_fold_seconds_count": stats.FramesFolded,
	} {
		if line := series + " " + strconv.Itoa(want); !slices.Contains(lines, line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}
