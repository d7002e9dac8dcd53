package webview

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"anycastmap/internal/analysis"
	"anycastmap/internal/asdb"
	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/netsim"
	"anycastmap/internal/store"
)

// testServer builds a server over two synthetic findings published
// through a store, the same wiring anycastd -admin uses.
func testServer(t *testing.T) (*Server, []analysis.Finding) {
	t.Helper()
	reg := asdb.Default()
	db := cities.Default()
	cf := reg.MustByName("CLOUDFLARENET,US")
	lvl := reg.MustByName("LEVEL3,US")
	mk := func(name, cc string) core.GeoReplica {
		return core.GeoReplica{VP: "vp-" + name, Located: true, City: db.MustByName(name, cc)}
	}
	p1, _ := netsim.ParsePrefix24("188.114.97.0/24")
	p2, _ := netsim.ParsePrefix24("4.68.30.0/24")
	fs := []analysis.Finding{
		{Prefix: p1, ASN: cf.ASN, Result: core.Result{Anycast: true, Replicas: []core.GeoReplica{
			mk("Amsterdam", "NL"), mk("Tokyo", "JP"), mk("New York", "US"),
		}}},
		{Prefix: p2, ASN: lvl.ASN, Result: core.Result{Anycast: true, Replicas: []core.GeoReplica{
			mk("Dallas", "US"), {VP: "vp-x", Located: false},
		}}},
	}
	st := store.New(store.Options{})
	st.Publish(store.NewSnapshot(fs, reg, 1, 1))
	s, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	return s, fs
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestHealth holds the browser to serving no /healthz of its own: the
// daemon's one health answer is the public listener's, which says
// "starting" and "degraded" where a browser-side one could only say "ok".
func TestHealth(t *testing.T) {
	s, _ := testServer(t)
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /healthz on the browser = %d %s, want 404", rec.Code, rec.Body.String())
	}
}

func TestIndexHTML(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"188.114.97.0/24", "CLOUDFLARENET,US", "amsterdam,nl", "<table>"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// The larger deployment sorts first.
	if strings.Index(body, "188.114.97.0/24") > strings.Index(body, "4.68.30.0/24") {
		t.Error("findings not sorted by replica count")
	}
	if got := get(t, s, "/nonexistent"); got.Code != http.StatusNotFound {
		t.Errorf("unknown path status %d", got.Code)
	}
}

func TestFindingsAPI(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/api/findings")
	var out []Finding
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d findings", len(out))
	}
	if out[0].Replicas != 3 || out[0].ASName != "CLOUDFLARENET,US" {
		t.Errorf("first finding = %+v", out[0])
	}
	if len(out[0].Cities) != 3 {
		t.Errorf("cities = %v", out[0].Cities)
	}

	// AS filter.
	rec = get(t, s, "/api/findings?as=level3")
	out = nil
	json.Unmarshal(rec.Body.Bytes(), &out)
	if len(out) != 1 || out[0].ASName != "LEVEL3,US" {
		t.Errorf("filtered findings = %+v", out)
	}
	// Min filter.
	rec = get(t, s, "/api/findings?min=3")
	out = nil
	json.Unmarshal(rec.Body.Bytes(), &out)
	if len(out) != 1 || out[0].Replicas != 3 {
		t.Errorf("min-filtered findings = %+v", out)
	}
}

func TestGeoJSON(t *testing.T) {
	s, _ := testServer(t)
	// Every spelling ParsePrefix24 accepts names the same /24: host bits
	// and leading zeros included, not only the canonical form.
	for _, tc := range []struct{ name, prefix string }{
		{"canonical", "188.114.97.0/24"},
		{"host-bits", "188.114.97.7/24"},
		{"leading-zeros", "188.114.097.000/24"},
	} {
		t.Run(tc.name, func(t *testing.T) { checkGeoJSON(t, s, tc.prefix) })
	}
}

func checkGeoJSON(t *testing.T, s *Server, prefix string) {
	rec := get(t, s, "/api/geojson?prefix="+prefix)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var coll struct {
		Type     string `json:"type"`
		Features []struct {
			Type     string `json:"type"`
			Geometry struct {
				Type        string     `json:"type"`
				Coordinates [2]float64 `json:"coordinates"`
			} `json:"geometry"`
			Properties map[string]any `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &coll); err != nil {
		t.Fatal(err)
	}
	if coll.Type != "FeatureCollection" || len(coll.Features) != 3 {
		t.Fatalf("collection = %+v", coll)
	}
	// RFC 7946: [lon, lat]. Amsterdam is ~(4.9 E, 52.4 N).
	found := false
	for _, f := range coll.Features {
		if f.Properties["city"] == "Amsterdam" {
			found = true
			if f.Geometry.Coordinates[0] < 4 || f.Geometry.Coordinates[0] > 6 {
				t.Errorf("Amsterdam lon = %v", f.Geometry.Coordinates[0])
			}
			if f.Geometry.Coordinates[1] < 52 || f.Geometry.Coordinates[1] > 53 {
				t.Errorf("Amsterdam lat = %v", f.Geometry.Coordinates[1])
			}
		}
	}
	if !found {
		t.Error("Amsterdam feature missing")
	}
}

func TestGeoJSONErrors(t *testing.T) {
	s, _ := testServer(t)
	if rec := get(t, s, "/api/geojson"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing prefix: status %d", rec.Code)
	}
	if rec := get(t, s, "/api/geojson?prefix=banana"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad prefix: status %d", rec.Code)
	}
	if rec := get(t, s, "/api/geojson?prefix=9.9.9.0/24"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown prefix: status %d", rec.Code)
	}
}

func TestUnlocatedReplicaFeature(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/api/geojson?prefix=4.68.30.0/24")
	var coll geoJSONCollection
	if err := json.Unmarshal(rec.Body.Bytes(), &coll); err != nil {
		t.Fatal(err)
	}
	unlocated := 0
	for _, f := range coll.Features {
		if f.Properties["located"] == false {
			unlocated++
			if _, hasCity := f.Properties["city"]; hasCity {
				t.Error("unlocated replica carries a city")
			}
		}
	}
	if unlocated != 1 {
		t.Errorf("unlocated features = %d, want 1", unlocated)
	}
}

func TestServesOverRealSocket(t *testing.T) {
	// End to end over a real TCP listener.
	s, _ := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/findings")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
}

func TestSnapshotSwapVisibleWithoutRestart(t *testing.T) {
	// The browser shares the hot-swappable index with anycastd: a
	// background refresh must show up on the next request.
	reg := asdb.Default()
	db := cities.Default()
	cf := reg.MustByName("CLOUDFLARENET,US")
	p1, _ := netsim.ParsePrefix24("188.114.97.0/24")
	fs := []analysis.Finding{{Prefix: p1, ASN: cf.ASN, Result: core.Result{
		Anycast: true,
		Replicas: []core.GeoReplica{
			{VP: "vp-a", Located: true, City: db.MustByName("Amsterdam", "NL")},
		},
	}}}

	st := store.New(store.Options{})
	s, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	// Empty store: zero findings, not an error.
	rec := get(t, s, "/api/findings")
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Fatalf("empty store served %d: %s", rec.Code, rec.Body.String())
	}

	st.Publish(store.NewSnapshot(fs, reg, 1, 1))
	var out []Finding
	if err := json.Unmarshal(get(t, s, "/api/findings").Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Prefix != "188.114.97.0/24" {
		t.Fatalf("first snapshot not visible: %+v", out)
	}

	// Swap in a snapshot with an extra deployment.
	p2, _ := netsim.ParsePrefix24("4.68.30.0/24")
	lvl := reg.MustByName("LEVEL3,US")
	fs = append(fs, analysis.Finding{Prefix: p2, ASN: lvl.ASN, Result: core.Result{
		Anycast: true,
		Replicas: []core.GeoReplica{
			{VP: "vp-b", Located: true, City: db.MustByName("Dallas", "US")},
		},
	}})
	st.Publish(store.NewSnapshot(fs, reg, 2, 1))
	out = nil
	if err := json.Unmarshal(get(t, s, "/api/findings").Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("swap not visible: %+v", out)
	}
	if rec := get(t, s, "/api/geojson?prefix=4.68.30.0/24"); rec.Code != http.StatusOK {
		t.Errorf("new deployment's geojson: %d", rec.Code)
	}
}
