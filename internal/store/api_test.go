package store

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"anycastmap/internal/obs"
)

func testAPI(t *testing.T) (*API, *Store) {
	t.Helper()
	st := New(Options{})
	st.Publish(testSnapshot(t, 8)) // 10.10.0.0/24 .. 10.10.7.0/24
	return NewAPI(st, nil, APIConfig{}), st
}

func doJSON(t *testing.T, a *API, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, req)
	out := map[string]any{}
	if rec.Body.Len() > 0 && strings.HasPrefix(rec.Body.String(), "{") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON from %s: %v: %s", path, err, rec.Body.String())
		}
	}
	return rec, out
}

func TestAPILookup(t *testing.T) {
	a, _ := testAPI(t)
	rec, body := doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.10.3.200", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if body["anycast"] != true || body["prefix"] != "10.10.3.0/24" {
		t.Errorf("lookup body = %v", body)
	}
	if body["as_name"] == "" || body["replicas"].(float64) != 2 {
		t.Errorf("attribution missing: %v", body)
	}
	if _, ok := body["instances"]; ok {
		t.Error("instances included without ?instances=1")
	}

	rec, body = doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.10.3.200&instances=1", "")
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if ins, ok := body["instances"].([]any); !ok || len(ins) != 2 {
		t.Errorf("instances not included on request: %v", body)
	}

	rec, body = doJSON(t, a, http.MethodGet, "/v1/lookup?ip=203.0.113.7", "")
	if rec.Code != http.StatusOK || body["anycast"] != false {
		t.Errorf("unicast lookup: %d %v", rec.Code, body)
	}

	rec, _ = doJSON(t, a, http.MethodGet, "/v1/lookup?ip=not-an-ip", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad IP accepted: %d", rec.Code)
	}
	rec, _ = doJSON(t, a, http.MethodGet, "/v1/lookup", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing IP accepted: %d", rec.Code)
	}
}

func TestAPILookupBatch(t *testing.T) {
	a, _ := testAPI(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/lookup/batch",
		strings.NewReader(`["10.10.0.0", "10.10.7.255", "203.0.113.9"]`))
	a.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0]["anycast"] != true || out[1]["anycast"] != true || out[2]["anycast"] != false {
		t.Errorf("batch answers = %v", out)
	}

	// Wrapped form.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v1/lookup/batch", strings.NewReader(`{"ips":["10.10.1.1"]}`))
	a.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("wrapped batch rejected: %d %s", rec.Code, rec.Body.String())
	}

	// Errors.
	for _, tc := range []struct {
		body string
		want int
	}{
		{`[]`, http.StatusBadRequest},
		{`["999.1.1.1"]`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		rec = httptest.NewRecorder()
		req = httptest.NewRequest(http.MethodPost, "/v1/lookup/batch", strings.NewReader(tc.body))
		a.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, rec.Code, tc.want)
		}
	}

	over := `["10.10.0.1"` + strings.Repeat(`,"10.10.0.1"`, 1024) + `]`
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v1/lookup/batch", strings.NewReader(over))
	a.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d", rec.Code)
	}
}

func TestAPISnapshotAndHealth(t *testing.T) {
	a, st := testAPI(t)
	rec, body := doJSON(t, a, http.MethodGet, "/v1/snapshot", "")
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if body["version"].(float64) != 1 || body["anycast_prefixes"].(float64) != 8 {
		t.Errorf("snapshot body = %v", body)
	}
	if body["censuses_combined"].(float64) != 4 {
		t.Errorf("rounds = %v", body["censuses_combined"])
	}

	rec, body = doJSON(t, a, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("health = %d %v", rec.Code, body)
	}

	// A fresh publish is visible immediately.
	st.Publish(testSnapshot(t, 2))
	_, body = doJSON(t, a, http.MethodGet, "/v1/snapshot", "")
	if body["version"].(float64) != 2 || body["anycast_prefixes"].(float64) != 2 {
		t.Errorf("post-swap snapshot = %v", body)
	}
}

func TestAPINotReady(t *testing.T) {
	a := NewAPI(New(Options{}), nil, APIConfig{})
	for _, path := range []string{"/healthz", "/v1/lookup?ip=1.2.3.4", "/v1/snapshot"} {
		rec, _ := doJSON(t, a, http.MethodGet, path, "")
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s before first snapshot: %d", path, rec.Code)
		}
	}
	rec, _ := doJSON(t, a, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Errorf("stats should answer before the first snapshot: %d", rec.Code)
	}
}

func TestAPIStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.snap")
	if err := SaveSnapshotFile(path, testSnapshot(t, 4)); err != nil {
		t.Fatal(err)
	}
	st := New(Options{})
	r := NewReloader(st, path)
	if !r.Check() {
		t.Fatal(r.LastError())
	}
	a := NewAPI(st, r, APIConfig{})

	doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.10.0.1", "")
	doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.10.0.1", "")
	rec, body := doJSON(t, a, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	storeStats := body["store"].(map[string]any)
	if storeStats["lookups"].(float64) != 2 || storeStats["snapshot_version"].(float64) != 1 {
		t.Errorf("store stats = %v", storeStats)
	}
	for k := range storeStats {
		if strings.HasPrefix(k, "cache") {
			t.Errorf("store stats still carry %q", k)
		}
	}
	eps := body["endpoints"].(map[string]any)
	if eps["lookup"].(map[string]any)["requests"].(float64) != 2 {
		t.Errorf("endpoint stats = %v", eps["lookup"])
	}
	if rs, ok := body["reloader"].(map[string]any); !ok || rs["loads"] != float64(1) {
		t.Errorf("reloader stats = %v", body["reloader"])
	}
}

func TestAPIBoundedConcurrency(t *testing.T) {
	st := New(Options{})
	st.Publish(testSnapshot(t, 2))
	a := NewAPI(st, nil, APIConfig{MaxInFlight: 1})

	// Fill the only slot with a request that blocks inside the handler
	// by hijacking the semaphore directly.
	a.sem <- struct{}{}
	rec, _ := doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.10.0.1", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overload request got %d", rec.Code)
	}
	<-a.sem
	rec, _ = doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.10.0.1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-overload request got %d", rec.Code)
	}
	_, body := doJSON(t, a, http.MethodGet, "/v1/stats", "")
	eps := body["endpoints"].(map[string]any)
	if eps["lookup"].(map[string]any)["rejected"].(float64) != 1 {
		t.Errorf("rejection not counted: %v", eps["lookup"])
	}
}

func TestAPIBatchBodyLimit(t *testing.T) {
	st := New(Options{})
	st.Publish(testSnapshot(t, 2))
	a := NewAPI(st, nil, APIConfig{MaxBodyBytes: 64})

	// Under the cap: served normally.
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lookup/batch", strings.NewReader(`["10.10.0.1"]`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("small batch got %d: %s", rec.Code, rec.Body.String())
	}

	// Over the cap: 413, not the 400 the error used to collapse into.
	over := `["10.10.0.1"` + strings.Repeat(`,"10.10.0.1"`, 16) + `]`
	rec, body := doJSON(t, a, http.MethodPost, "/v1/lookup/batch", over)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body got %d, want 413", rec.Code)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "64 bytes") {
		t.Errorf("413 body does not name the limit: %v", body)
	}
}

// failingWriter accepts the response header but fails every body write,
// like a client that disconnected between the header and the payload.
type failingWriter struct {
	header http.Header
	status int
}

func (w *failingWriter) Header() http.Header { return w.header }

func (w *failingWriter) WriteHeader(status int) { w.status = status }

func (w *failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("client went away")
}

func TestAPIEncodeFailureCountsAsError(t *testing.T) {
	a, _ := testAPI(t)
	fw := &failingWriter{header: http.Header{}}
	a.ServeHTTP(fw, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	// The header went out before the body write failed; the recorded
	// status can't be rewritten, but the endpoint counters must show the
	// request errored.
	if fw.status != http.StatusOK {
		t.Fatalf("header status = %d", fw.status)
	}
	em := a.metrics["stats"]
	if em.requests.Load() != 1 || em.errors.Load() != 1 {
		t.Fatalf("stats endpoint counters = %d requests, %d errors; want 1 and 1",
			em.requests.Load(), em.errors.Load())
	}
	_, body := doJSON(t, a, http.MethodGet, "/v1/stats", "")
	eps := body["endpoints"].(map[string]any)
	if eps["stats"].(map[string]any)["errors"].(float64) != 1 {
		t.Errorf("encode failure invisible in /v1/stats: %v", eps["stats"])
	}
}

func TestAPIRejectedVisibleInStatsAndMetrics(t *testing.T) {
	st := New(Options{})
	st.Publish(testSnapshot(t, 2))
	reg := obs.NewRegistry()
	a := NewAPI(st, nil, APIConfig{MaxInFlight: 1, Metrics: reg})

	a.sem <- struct{}{} // fill the only slot
	rec, _ := doJSON(t, a, http.MethodGet, "/v1/lookup?ip=10.10.0.1", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overload request got %d", rec.Code)
	}
	<-a.sem

	_, body := doJSON(t, a, http.MethodGet, "/v1/stats", "")
	eps := body["endpoints"].(map[string]any)
	if eps["lookup"].(map[string]any)["rejected"].(float64) != 1 {
		t.Errorf("rejection not in /v1/stats: %v", eps["lookup"])
	}
	m := scrapeMetrics(t, a)
	if m[`anycastmap_http_requests_rejected_total{endpoint="lookup"}`] != 1 {
		t.Errorf("rejection not in /metrics: %v", m[`anycastmap_http_requests_rejected_total{endpoint="lookup"}`])
	}
	// The shed request never entered the handler: served and latency
	// counts stay at zero for it.
	if m[`anycastmap_http_requests_total{endpoint="lookup"}`] != 0 {
		t.Errorf("rejected request counted as served: %v", m[`anycastmap_http_requests_total{endpoint="lookup"}`])
	}
}

func TestAPIConcurrentLookupsDuringSwap(t *testing.T) {
	// End-to-end flavour of the acceptance criterion: HTTP lookups keep
	// answering while snapshots swap underneath.
	st := New(Options{})
	st.Publish(testSnapshot(t, 8))
	a := NewAPI(st, nil, APIConfig{MaxInFlight: 64})

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st.Publish(testSnapshot(t, 8))
			}
		}
	}()

	var wg sync.WaitGroup
	failures := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, "/v1/lookup?ip=10.10.4.4", nil)
				a.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					failures <- rec.Body.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	select {
	case f := <-failures:
		t.Fatalf("lookup failed during swaps: %s", f)
	default:
	}
}

// TestAPIConfigValidate: zero bounds mean the defaults; a negative one is
// refused by name.
func TestAPIConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg  APIConfig
		want string // substring of the error; "" means valid
	}{
		{APIConfig{}, ""},
		{APIConfig{MaxInFlight: 8, MaxBodyBytes: 1 << 10}, ""},
		{APIConfig{MaxInFlight: -1}, "MaxInFlight"},
		{APIConfig{MaxBodyBytes: -1}, "MaxBodyBytes"},
	} {
		err := tc.cfg.Validate()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: Validate() = %v, want %q", tc.cfg, err, tc.want)
		}
	}
}
