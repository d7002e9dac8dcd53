package store

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/obs"
	"anycastmap/internal/prober"
)

// scrapeMetrics GETs /metrics through the API and parses the text
// exposition into full-series-name (labels included) -> value.
func scrapeMetrics(t *testing.T, a *API) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q", ct)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// The acceptance criterion for the /metrics surface: after a real census
// refresh and some HTTP traffic, every scraped counter equals the Stats
// struct it mirrors — store, refresher, endpoints, census campaign,
// prober. The cluster control plane's series are held to its Stats by
// internal/cluster's TestCoordinatorMetricsMatchStats.
func TestMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real census round")
	}
	reg := obs.NewRegistry()
	prober.DefaultMetrics.Register(reg)
	cs := smallSource(t)
	cs.Metrics = census.NewMetrics(reg)
	prober.RegisterGreylistGauge(reg, cs.Blacklist, "blacklist")

	st := New(Options{})
	r := NewRefresher(st, cs, time.Hour)
	a := NewAPI(st, r, APIConfig{Metrics: reg})
	if !r.RefreshOnce(context.Background()) {
		t.Fatal("census refresh failed")
	}

	// Serve a little traffic so every endpoint family has samples: two
	// identical lookups, one batch, one stats.
	doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.9.0.1", "")
	doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.9.0.1", "")
	doJSON(t, a, http.MethodPost, "/v1/lookup/batch", `["10.9.0.1","10.9.0.2"]`)
	doJSON(t, a, http.MethodGet, "/v1/stats", "")

	m := scrapeMetrics(t, a)

	ss := st.Stats()
	rs := r.Stats()
	storeChecks := map[string]float64{
		"anycastmap_store_lookups_total":              float64(ss.Lookups),
		"anycastmap_store_snapshot_swaps_total":       float64(ss.Swaps),
		"anycastmap_store_snapshot_version":           float64(ss.Version),
		"anycastmap_store_snapshot_prefixes":          float64(st.Current().Len()),
		"anycastmap_refresh_completed_total":          float64(rs.Completed),
		"anycastmap_refresh_failed_total":             float64(rs.Failed),
		"anycastmap_refresh_panics_total":             float64(rs.Panics),
		"anycastmap_refresh_degraded_publishes_total": float64(rs.DegradedPublishes),
		"anycastmap_refresh_degraded_builds_total":    float64(rs.DegradedBuilds),
		"anycastmap_refresh_interval_seconds":         rs.Interval.Seconds(),
	}
	for name, want := range storeChecks {
		got, ok := m[name]
		if !ok {
			t.Errorf("series %s missing from scrape", name)
		} else if got != want {
			t.Errorf("%s = %v, stats say %v", name, got, want)
		}
	}

	// Campaign instruments: one round folded (Rounds=1, shard path), one
	// analysis observed, and its detection counters fed: every target
	// analysis ended either witness-decided or split-scanned.
	if m["anycastmap_census_rounds_folded_total"] != 1 {
		t.Errorf("rounds folded = %v", m["anycastmap_census_rounds_folded_total"])
	}
	if m["anycastmap_census_analyze_seconds_count"] != 1 {
		t.Errorf("analyze count = %v", m["anycastmap_census_analyze_seconds_count"])
	}
	analyses := m["anycastmap_census_analyses_total"]
	if analyses == 0 {
		t.Error("census refresh recorded no target analyses")
	}
	if w, s := m["anycastmap_census_witness_decided_total"], m["anycastmap_census_split_scanned_total"]; w+s != analyses {
		t.Errorf("witness-decided %v + split-scanned %v != analyses %v", w, s, analyses)
	}

	// Prober: the scraped counters are the package counters.
	proberChecks := map[string]uint64{
		"anycastmap_probe_runs_total":         prober.DefaultMetrics.Runs.Load(),
		"anycastmap_probe_probes_sent_total":  prober.DefaultMetrics.ProbesSent.Load(),
		"anycastmap_probe_echo_replies_total": prober.DefaultMetrics.EchoReplies.Load(),
		"anycastmap_probe_plans_total":        prober.DefaultMetrics.Plans.Load(),
	}
	for name, want := range proberChecks {
		if got := m[name]; got != float64(want) {
			t.Errorf("%s = %v, prober counters say %d", name, got, want)
		}
	}
	if m["anycastmap_probe_runs_total"] == 0 {
		t.Error("census refresh recorded no probing runs")
	}
	// Every vantage point of a round reads the same span plan.
	if p, r := m["anycastmap_probe_plans_total"], m["anycastmap_probe_runs_total"]; p == 0 || p >= r {
		t.Errorf("%v span plans for %v probing runs", p, r)
	}

	// Per-endpoint series read the same atomics /v1/stats serves.
	for name, em := range a.metrics {
		if name == "metrics" {
			// The scrape's own request is counted after the handler
			// returns, so its counter lags itself by one; skip.
			continue
		}
		key := `{endpoint="` + name + `"}`
		if got := m["anycastmap_http_requests_total"+key]; got != float64(em.requests.Load()) {
			t.Errorf("requests{%s} = %v, endpoint stats say %d", name, got, em.requests.Load())
		}
		if got := m["anycastmap_http_request_seconds_count"+key]; got != float64(em.requests.Load()) {
			t.Errorf("latency count{%s} = %v, want %d", name, got, em.requests.Load())
		}
		if got := m["anycastmap_http_request_errors_total"+key]; got != float64(em.errors.Load()) {
			t.Errorf("errors{%s} = %v, want %d", name, got, em.errors.Load())
		}
	}
	if a.metrics["lookup"].requests.Load() != 2 {
		t.Errorf("lookup requests = %d", a.metrics["lookup"].requests.Load())
	}
}

// Satellite regression: a source that fails its first builds must not
// leave the daemon dark for a full refresh interval — Run retries the
// initial refresh on a short backoff until the first snapshot lands.
func TestRefresherInitialRetryBackoff(t *testing.T) {
	st := New(Options{})
	fails := 3
	var builds atomic.Int32
	src := SourceFunc(func(context.Context) (*Snapshot, error) {
		if builds.Add(1) <= int32(fails) {
			return nil, errors.New("transient source error")
		}
		return testSnapshot(t, 2), nil
	})
	r := NewRefresher(st, src, time.Hour) // interval far beyond the test deadline
	r.InitialBackoff = 2 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	start := time.Now()
	go func() {
		r.Run(ctx)
		close(done)
	}()

	deadline := time.After(5 * time.Second)
	for !st.Ready() {
		select {
		case <-deadline:
			t.Fatalf("store not ready after 5s (%d builds)", builds.Load())
		case <-time.After(time.Millisecond):
		}
	}
	if elapsed := time.Since(start); elapsed >= 5*time.Second {
		t.Fatalf("first snapshot took %v", elapsed)
	}
	stats := r.Stats()
	if stats.Failed != uint64(fails) || stats.Completed != 1 {
		t.Errorf("stats = %+v, want %d failures then 1 completion", stats, fails)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancellation")
	}
}

// The two degradation signals are distinct and separately counted: a
// build that returns an error alongside its snapshot, and a campaign
// that quarantined a vantage point.
func TestRefresherDegradedCountersDistinct(t *testing.T) {
	st := New(Options{})
	mode := 0
	src := SourceFunc(func(context.Context) (*Snapshot, error) {
		switch mode {
		case 0: // build error, healthy campaign
			return testSnapshot(t, 1), errors.New("one VP errored")
		case 1: // clean build, degraded campaign
			snap := testSnapshot(t, 1)
			snap.SetHealth(census.CampaignHealth{Rounds: 1, Quarantined: []string{"vp-7"}})
			return snap, nil
		default: // both at once
			snap := testSnapshot(t, 1)
			snap.SetHealth(census.CampaignHealth{Rounds: 1, Quarantined: []string{"vp-7"}})
			return snap, errors.New("one VP errored")
		}
	})
	r := NewRefresher(st, src, time.Minute)

	reg := obs.NewRegistry()
	RegisterMetrics(reg, st, r)

	for mode = 0; mode < 3; mode++ {
		if !r.RefreshOnce(context.Background()) {
			t.Fatalf("mode %d refresh failed", mode)
		}
	}
	stats := r.Stats()
	if stats.DegradedBuilds != 2 {
		t.Errorf("DegradedBuilds = %d, want 2 (modes 0 and 2)", stats.DegradedBuilds)
	}
	if stats.DegradedPublishes != 2 {
		t.Errorf("DegradedPublishes = %d, want 2 (modes 1 and 2)", stats.DegradedPublishes)
	}
	if stats.Completed != 3 || stats.Failed != 0 {
		t.Errorf("stats = %+v", stats)
	}

	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"anycastmap_refresh_degraded_builds_total 2",
		"anycastmap_refresh_degraded_publishes_total 2",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, text.String())
		}
	}
}
