package admin

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"anycastmap/internal/obs"
)

func TestMuxServesMetricsAndProfiles(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("anycastmap_test_total", "a counter").Inc()
	srv := httptest.NewServer(Mux(reg))
	defer srv.Close()

	for _, tc := range []struct {
		path, contentType, body string
	}{
		{"/metrics", obs.ContentType, "anycastmap_test_total 1"},
		{"/debug/pprof/", "text/html", "heap"},
		{"/debug/pprof/heap?debug=1", "text/plain", "heap profile:"},
		{"/debug/pprof/goroutine?debug=1", "text/plain", "goroutine profile:"},
		{"/debug/pprof/cmdline", "text/plain", "admin.test"},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", tc.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.contentType) {
			t.Errorf("GET %s: content type %q, want %q", tc.path, ct, tc.contentType)
		}
		if !strings.Contains(string(body), tc.body) {
			t.Errorf("GET %s: body lacks %q", tc.path, tc.body)
		}
	}

	resp, err := http.Post(srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}
