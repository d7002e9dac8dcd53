// Package webview serves the census results for browsing, the equivalent
// of the paper's public dataset site (reference [21]): an HTML index of
// every detected anycast /24, a JSON API, and per-deployment GeoJSON of the
// geolocated replicas, suitable for dropping onto any map widget.
//
// The server reads from a store.Store — the same hot-swappable index that
// backs cmd/anycastd — so a background refresh becomes visible to the
// browser on the next request without a restart. The rendered view
// (sorted finding list, per-prefix replica map) is derived once per
// snapshot version and cached behind an atomic pointer.
//
// The server exposes measurement results only - nothing from the
// simulator's ground truth.
package webview

import (
	"embed"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"

	"anycastmap/internal/netsim"
	"anycastmap/internal/store"
)

// Finding is the JSON shape of one detected anycast /24.
type Finding struct {
	Prefix   string   `json:"prefix"`
	ASN      int      `json:"asn"`
	ASName   string   `json:"as_name"`
	Category string   `json:"category"`
	Replicas int      `json:"replicas"`
	Cities   []string `json:"cities"`
}

// replica is one geolocated instance for the GeoJSON output.
type replica struct {
	city    string
	cc      string
	lat     float64
	lon     float64
	viaVP   string
	located bool
}

// view is the render-ready projection of one snapshot version.
type view struct {
	version  uint64
	findings []Finding
	replicas map[netsim.Prefix24][]replica // geolocated replicas per /24
}

// Server is the census browser; it implements http.Handler.
type Server struct {
	mux   *http.ServeMux
	store *store.Store
	tmpl  *template.Template
	view  atomic.Pointer[view]
}

//go:embed index.html.tmpl
var templates embed.FS

// New builds a server over the census index. The store may be empty (the
// browser shows zero findings) and may be refreshed behind the server's
// back at any time.
func New(st *store.Store) (*Server, error) {
	tmpl, err := template.ParseFS(templates, "index.html.tmpl")
	if err != nil {
		return nil, fmt.Errorf("webview: %w", err)
	}
	s := &Server{
		mux:   http.NewServeMux(),
		store: st,
		tmpl:  tmpl,
	}
	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /api/findings", s.handleFindings)
	s.mux.HandleFunc("GET /api/geojson", s.handleGeoJSON)
	return s, nil
}

// currentView projects the live snapshot, reusing the cached projection
// while the snapshot version is unchanged. Concurrent rebuilds after a
// swap are benign: they produce identical views and the last store wins.
func (s *Server) currentView() *view {
	snap := s.store.Current()
	if snap == nil {
		return &view{replicas: map[netsim.Prefix24][]replica{}}
	}
	if v := s.view.Load(); v != nil && v.version == snap.Version() {
		return v
	}
	v := buildView(snap)
	s.view.Store(v)
	return v
}

// buildView flattens a snapshot into the browser's sorted finding list
// and per-prefix replica map.
func buildView(snap *store.Snapshot) *view {
	v := &view{
		version:  snap.Version(),
		replicas: map[netsim.Prefix24][]replica{},
	}
	for _, e := range snap.Entries() {
		v.findings = append(v.findings, Finding{
			Prefix:   e.Prefix.String(),
			ASN:      e.ASN,
			ASName:   e.ASName,
			Category: e.Category,
			Replicas: e.Replicas,
			Cities:   e.Cities,
		})
		for _, in := range e.Instances {
			v.replicas[e.Prefix] = append(v.replicas[e.Prefix], replica{
				city: in.City, cc: in.CC,
				lat: in.Lat, lon: in.Lon,
				viaVP: in.ViaVP, located: in.Located,
			})
		}
	}
	sort.Slice(v.findings, func(i, j int) bool {
		if v.findings[i].Replicas != v.findings[j].Replicas {
			return v.findings[i].Replicas > v.findings[j].Replicas
		}
		return v.findings[i].Prefix < v.findings[j].Prefix
	})
	return v
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	v := s.currentView()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","findings":%d,"snapshot_version":%d}`, len(v.findings), v.version)
}

// handleIndex renders the HTML table.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	v := s.currentView()
	limit := 200
	if len(v.findings) < limit {
		limit = len(v.findings)
	}
	data := struct {
		Total    int
		Shown    int
		Findings []Finding
	}{Total: len(v.findings), Shown: limit, Findings: v.findings[:limit]}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleFindings serves the full finding list, optionally filtered by AS
// name substring (?as=cloudflare) or minimum replicas (?min=5).
func (s *Server) handleFindings(w http.ResponseWriter, r *http.Request) {
	v := s.currentView()
	asFilter := strings.ToLower(r.URL.Query().Get("as"))
	min := 0
	if _, err := fmt.Sscanf(r.URL.Query().Get("min"), "%d", &min); err != nil {
		min = 0
	}
	out := make([]Finding, 0, len(v.findings))
	for _, f := range v.findings {
		if asFilter != "" && !strings.Contains(strings.ToLower(f.ASName), asFilter) {
			continue
		}
		if f.Replicas < min {
			continue
		}
		out = append(out, f)
	}
	writeJSON(w, out)
}

// geoJSON types, the subset of RFC 7946 the browser needs.
type geoJSONFeature struct {
	Type       string         `json:"type"`
	Geometry   geoJSONPoint   `json:"geometry"`
	Properties map[string]any `json:"properties"`
}

type geoJSONPoint struct {
	Type        string     `json:"type"`
	Coordinates [2]float64 `json:"coordinates"` // lon, lat per RFC 7946
}

type geoJSONCollection struct {
	Type     string           `json:"type"`
	Features []geoJSONFeature `json:"features"`
}

// handleGeoJSON serves one deployment's replicas as a FeatureCollection
// (?prefix=188.114.97.0/24; any host of the /24 names it).
func (s *Server) handleGeoJSON(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("prefix")
	if raw == "" {
		http.Error(w, "missing ?prefix=", http.StatusBadRequest)
		return
	}
	prefix, err := netsim.ParsePrefix24(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reps, ok := s.currentView().replicas[prefix]
	if !ok {
		http.Error(w, "prefix not in the census results", http.StatusNotFound)
		return
	}
	coll := geoJSONCollection{Type: "FeatureCollection"}
	for _, rep := range reps {
		props := map[string]any{"via": rep.viaVP, "located": rep.located}
		if rep.located {
			props["city"] = rep.city
			props["cc"] = rep.cc
		}
		coll.Features = append(coll.Features, geoJSONFeature{
			Type:       "Feature",
			Geometry:   geoJSONPoint{Type: "Point", Coordinates: [2]float64{rep.lon, rep.lat}},
			Properties: props,
		})
	}
	writeJSON(w, coll)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
