package store

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"anycastmap/internal/obs"
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

// The acceptance criterion for anycastd's /metrics surface: after a
// reload, a rejected file and some HTTP traffic, every scraped counter
// equals the Stats struct it mirrors — store, reloader, endpoints. The
// census and prober series are held to their counters by internal/census's
// TestCampaignMetricsExposition, the cluster control plane's by
// internal/cluster's TestCoordinatorMetricsMatchStats.
func TestMetricsExposition(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.snap")
	writeTestSnapshot(t, path, 8)
	reg := obs.NewRegistry()
	st := New(Options{})
	r := NewReloader(st, path)
	a := NewAPI(st, r, APIConfig{Metrics: reg})
	if !r.Check() {
		t.Fatalf("reload failed: %v", r.LastError())
	}
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if r.Check() {
		t.Fatal("torn file published")
	}

	// Serve a little traffic so every endpoint family has samples: two
	// identical lookups, one batch, one stats.
	doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.10.0.1", "")
	doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.10.0.1", "")
	doJSON(t, a, http.MethodPost, "/v1/lookup/batch", `["10.10.0.1","10.10.0.2"]`)
	doJSON(t, a, http.MethodGet, "/v1/stats", "")

	m := scrapeMetrics(t, a)

	ss := st.Stats()
	rs := r.Stats()
	if rs.Loads != 1 || rs.Rejects != 1 {
		t.Fatalf("reloader stats = %+v, want one load and one rejection", rs)
	}
	checks := map[string]float64{
		"anycastmap_store_lookups_total":        float64(ss.Lookups),
		"anycastmap_store_snapshot_swaps_total": float64(ss.Swaps),
		"anycastmap_store_snapshot_version":     float64(ss.Version),
		"anycastmap_store_snapshot_prefixes":    float64(st.Current().Len()),
		"anycastmap_reload_total":               float64(rs.Loads),
		"anycastmap_reload_rejected_total":      float64(rs.Rejects),
	}
	for name, want := range checks {
		got, ok := m[name]
		if !ok {
			t.Errorf("series %s missing from scrape", name)
		} else if got != want {
			t.Errorf("%s = %v, stats say %v", name, got, want)
		}
	}
	for name := range m {
		if strings.HasPrefix(name, "anycastmap_refresh_") || strings.HasPrefix(name, "anycastmap_census_") ||
			strings.HasPrefix(name, "anycastmap_probe_") {
			t.Errorf("the server scrapes a census series: %s", name)
		}
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
