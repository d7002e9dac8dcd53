package store

import (
	"context"
	"net/http"
	"path/filepath"
	"sync"
	"testing"

	"anycastmap/internal/analysis"
	"anycastmap/internal/bgp"
	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

var (
	smallOnce  sync.Once
	smallWorld *netsim.World
	smallHits  *hitlist.Hitlist
)

// smallCensus is a reduced world and its pruned hitlist, shared by every
// test that runs a real census.
func smallCensus() (*netsim.World, *hitlist.Hitlist) {
	smallOnce.Do(func() {
		cfg := netsim.DefaultConfig()
		cfg.Unicast24s = 2000
		cfg.Seed = 77
		smallWorld = netsim.New(cfg)
		smallHits = hitlist.FromWorld(smallWorld).PruneNeverAlive()
	})
	return smallWorld, smallHits
}

// writeCensus runs census round `round` (80 PlanetLab VPs) over probe,
// the small world or a faulty copy of it, and writes what `census
// -snapshot path` writes: the analysis attributed, indexed and stamped
// with the campaign's health. It returns the round's probing error.
func writeCensus(t testing.TB, path string, probe *netsim.World, round uint64, cfg census.Config) error {
	t.Helper()
	w, h := smallCensus()
	db := cities.Default()
	cfg.Seed = 77
	cp := census.NewCampaign(census.CampaignConfig{Census: cfg})
	vps := platform.PlanetLab(db).Sample(80, cfg.Seed+round)
	outcomes, _, probeErr := cp.Drive(context.Background(), census.Drive{Executor: cp.Local(probe, h, nil, census.PipelineConfig{}),
		First: round, Schedule: [][]platform.VP{vps}})
	snap := NewSnapshot(analysis.Attribute(outcomes, bgp.FromWorld(w)), w.Registry, round, 1)
	snap.SetHealth(cp.Health())
	if err := SaveSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	return probeErr
}

// TestCensusFileServesEveryEntry holds the producer/server boundary: a
// census written to a file, loaded by a Reloader, answers every deployment
// it detected through the HTTP API.
func TestCensusFileServesEveryEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real census round")
	}
	w, _ := smallCensus()
	path := filepath.Join(t.TempDir(), "map.snap")
	if err := writeCensus(t, path, w, 1, census.Config{}); err != nil {
		t.Fatalf("census: %v", err)
	}
	st := New(Options{})
	rl := NewReloader(st, path)
	if !rl.Check() {
		t.Fatalf("census file not loaded: %v", rl.LastError())
	}
	snap := st.Current()
	if snap.Len() == 0 {
		t.Fatal("census detected no anycast")
	}
	if snap.Round() != 1 || snap.Rounds() != 1 {
		t.Errorf("round bookkeeping %d/%d", snap.Round(), snap.Rounds())
	}

	a := NewAPI(st, rl, APIConfig{})
	for _, e := range snap.Entries() {
		rec, body := doJSON(t, a, http.MethodGet, "/v1/lookup?ip="+e.Prefix.Host(1).String(), "")
		if rec.Code != http.StatusOK || body["anycast"] != true || body["asn"] != float64(e.ASN) {
			t.Fatalf("entry %v not servable: %d %v", e.Prefix, rec.Code, body)
		}
	}
}

// TestDegradedCampaignServedAndSurfaced drives a campaign whose fault
// plan permanently crashes a share of the vantage points through the file
// path: the partial map serves, and the operator surfaces say why it is
// thin.
func TestDegradedCampaignServedAndSurfaced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real census round")
	}
	w, _ := smallCensus()
	plan, err := netsim.NewFaultPlan(netsim.FaultConfig{Seed: 99, CrashFraction: 0.3, CrashStickiness: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "map.snap")
	if err := writeCensus(t, path, w.WithFaults(plan), 1, census.Config{MaxAttempts: 2, RetryBackoff: -1}); err == nil {
		t.Fatal("degraded campaign ran without error")
	}
	st := New(Options{})
	rl := NewReloader(st, path)
	if !rl.Check() {
		t.Fatalf("degraded census file not loaded: %v", rl.LastError())
	}
	snap := st.Current()
	h := snap.Health()
	if !snap.Degraded() || len(h.Quarantined) == 0 {
		t.Fatalf("campaign health not degraded: %+v", h)
	}
	if h.Rounds != 1 || h.Completed+len(h.Quarantined) < h.VPRuns {
		t.Errorf("campaign accounting off: %+v", h)
	}
	if snap.Len() == 0 {
		t.Fatal("degraded campaign detected nothing despite surviving VPs")
	}

	// /healthz flips to degraded, /v1/stats carries the campaign health.
	a := NewAPI(st, rl, APIConfig{})
	rec, body := doJSON(t, a, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	if body["status"] != "degraded" {
		t.Errorf("healthz status = %v, want degraded", body["status"])
	}
	if int(body["quarantined_vps"].(float64)) != len(h.Quarantined) {
		t.Errorf("healthz quarantined_vps = %v, want %d", body["quarantined_vps"], len(h.Quarantined))
	}
	if _, ok := body["reload_error"]; ok {
		t.Errorf("a loaded file reports a reload error: %v", body)
	}

	rec, body = doJSON(t, a, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	ch, ok := body["campaign_health"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing campaign_health: %v", body)
	}
	if got := len(ch["quarantined_vps"].([]any)); got != len(h.Quarantined) {
		t.Errorf("stats quarantined_vps = %d, want %d", got, len(h.Quarantined))
	}
	if int(ch["retries"].(float64)) != h.Retries {
		t.Errorf("stats retries = %v, want %d", ch["retries"], h.Retries)
	}
	if rs, ok := body["reloader"].(map[string]any); !ok || rs["loads"] != float64(1) {
		t.Errorf("reloader stats = %v", body["reloader"])
	}

	// Quarantine thins rows but the surviving samples still serve lookups.
	for _, e := range snap.Entries() {
		ans := st.Lookup(e.Prefix.Host(1))
		if !ans.Anycast || ans.Entry.ASN != e.ASN {
			t.Fatalf("entry %v not servable from degraded snapshot: %+v", e.Prefix, ans)
		}
	}
}

// TestReloadNewFile is the freshness loop: the next census replaces the
// file, and the server swaps it in as the next version with the census's
// advanced round.
func TestReloadNewFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real census rounds")
	}
	w, _ := smallCensus()
	path := filepath.Join(t.TempDir(), "map.snap")
	st := New(Options{})
	rl := NewReloader(st, path)
	a := NewAPI(st, rl, APIConfig{})
	for round := uint64(1); round <= 2; round++ {
		if err := writeCensus(t, path, w, round, census.Config{}); err != nil {
			t.Fatalf("census %d: %v", round, err)
		}
		if !rl.Check() {
			t.Fatalf("census %d not loaded: %v", round, rl.LastError())
		}
		_, body := doJSON(t, a, http.MethodGet, "/v1/snapshot", "")
		if body["version"] != float64(round) || body["census_round"] != float64(round) {
			t.Errorf("after census %d: /v1/snapshot = %v", round, body)
		}
	}
	if rs := rl.Stats(); rs.Loads != 2 || rs.Rejects != 0 {
		t.Errorf("reloader stats = %+v", rs)
	}
	if swaps := st.Stats().Swaps; swaps != 2 {
		t.Errorf("swaps = %d, want 2", swaps)
	}
}
