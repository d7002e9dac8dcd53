package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"anycastmap/internal/netsim"
	"anycastmap/internal/obs"
)

// APIConfig tunes the HTTP layer.
type APIConfig struct {
	// MaxInFlight bounds concurrently-served requests; excess requests
	// are rejected with 503 instead of queueing without bound. Zero
	// means 256.
	MaxInFlight int
	// MaxBodyBytes bounds the /v1/lookup/batch request body; zero means
	// 1 MiB. Oversize bodies are rejected with 413.
	MaxBodyBytes int64
	// Metrics, when set, receives the per-endpoint request series and is
	// served at GET /metrics in Prometheus text format. The store (and
	// reloader, when present) series are registered on it too.
	Metrics *obs.Registry
}

// Validate reports the first bound no API can mean, or nil: a negative
// MaxInFlight or MaxBodyBytes (zero means the default). NewAPI reads a
// non-positive bound as its default, so a caller taking a bound from its
// user validates it first.
func (c APIConfig) Validate() error {
	switch {
	case c.MaxInFlight < 0:
		return fmt.Errorf("store: APIConfig.MaxInFlight is %d; want a bound, or 0 for 256", c.MaxInFlight)
	case c.MaxBodyBytes < 0:
		return fmt.Errorf("store: APIConfig.MaxBodyBytes is %d; want a bound, or 0 for 1 MiB", c.MaxBodyBytes)
	}
	return nil
}

func (c APIConfig) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return 256
}

// maxBatch bounds the /v1/lookup/batch list size.
const maxBatch = 1024

func (c APIConfig) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 1 << 20
}

// endpointMetrics is one endpoint's latency/volume counters. latency is
// the optional scrape-side histogram; the atomics stay authoritative for
// /v1/stats (and back the scraped counters via read-through functions).
type endpointMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	rejected atomic.Uint64
	totalNs  atomic.Int64
	latency  *obs.Histogram
}

// EndpointStats is the JSON shape of one endpoint's counters.
type EndpointStats struct {
	Requests  uint64  `json:"requests"`
	Errors    uint64  `json:"errors"`
	Rejected  uint64  `json:"rejected"`
	AvgMicros float64 `json:"avg_latency_us"`
}

func (m *endpointMetrics) stats() EndpointStats {
	st := EndpointStats{
		Requests: m.requests.Load(),
		Errors:   m.errors.Load(),
		Rejected: m.rejected.Load(),
	}
	if st.Requests > 0 {
		st.AvgMicros = float64(m.totalNs.Load()) / float64(st.Requests) / 1e3
	}
	return st
}

// API is the anycastd HTTP surface over a Store: /v1/lookup,
// /v1/lookup/batch, /v1/snapshot, /v1/stats and /healthz. It implements
// http.Handler.
type API struct {
	store    *Store
	reloader *Reloader // optional, enriches /healthz and /v1/stats
	mux      *http.ServeMux
	sem      chan struct{}
	maxBody  int64
	registry *obs.Registry
	metrics  map[string]*endpointMetrics
}

// NewAPI builds the handler. reloader may be nil for a store something
// else publishes into. When cfg.Metrics is set, the store, reloader and
// per-endpoint series are registered on it and GET /metrics serves the
// scrape.
func NewAPI(st *Store, reloader *Reloader, cfg APIConfig) *API {
	a := &API{
		store:    st,
		reloader: reloader,
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, cfg.maxInFlight()),
		maxBody:  cfg.maxBodyBytes(),
		registry: cfg.Metrics,
		metrics:  map[string]*endpointMetrics{},
	}
	if a.registry != nil {
		RegisterMetrics(a.registry, st, reloader)
	}
	a.handle("GET /healthz", "healthz", a.handleHealth)
	a.handle("GET /v1/lookup", "lookup", a.handleLookup)
	a.handle("POST /v1/lookup/batch", "batch", a.handleBatch)
	a.handle("GET /v1/snapshot", "snapshot", a.handleSnapshot)
	a.handle("GET /v1/stats", "stats", a.handleStats)
	if a.registry != nil {
		scrape := a.registry.Handler()
		a.handle("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) int {
			scrape.ServeHTTP(w, r)
			return http.StatusOK
		})
	}
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// handle registers a pattern with the concurrency bound and per-endpoint
// latency accounting wrapped around it. With a registry configured, each
// endpoint also gets anycastmap_http_* series labelled endpoint=name,
// reading through to the same atomics /v1/stats samples.
func (a *API) handle(pattern, name string, h func(http.ResponseWriter, *http.Request) int) {
	m := &endpointMetrics{}
	a.metrics[name] = m
	if a.registry != nil {
		l := obs.L("endpoint", name)
		a.registry.CounterFunc("anycastmap_http_requests_total", "HTTP requests served, by endpoint.", m.requests.Load, l)
		a.registry.CounterFunc("anycastmap_http_request_errors_total", "HTTP requests that returned a 4xx/5xx status, by endpoint.", m.errors.Load, l)
		a.registry.CounterFunc("anycastmap_http_requests_rejected_total", "HTTP requests shed with 503 at the concurrency bound, by endpoint.", m.rejected.Load, l)
		m.latency = a.registry.Histogram("anycastmap_http_request_seconds", "HTTP request latency, by endpoint.", obs.FastBuckets, l)
	}
	a.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		select {
		case a.sem <- struct{}{}:
			defer func() { <-a.sem }()
		default:
			m.rejected.Add(1)
			http.Error(w, `{"error":"server at capacity"}`, http.StatusServiceUnavailable)
			return
		}
		start := time.Now()
		status := h(w, r)
		d := time.Since(start)
		m.requests.Add(1)
		m.totalNs.Add(d.Nanoseconds())
		m.latency.Observe(d.Seconds())
		if status >= 400 {
			m.errors.Add(1)
		}
	})
}

// LookupResponse is the JSON shape of one classification.
type LookupResponse struct {
	IP      string `json:"ip"`
	Anycast bool   `json:"anycast"`
	Prefix  string `json:"prefix,omitempty"`
	*Entry
	Version uint64 `json:"snapshot_version"`
}

// lookupScratch is the reusable per-request state of the single-lookup
// endpoint. The old shape allocated a fresh trimmed Entry copy per
// request just to drop the instances from the JSON; pooling the
// response struct and the trimmed copy keeps the handler's own work to
// the one unavoidable allocation (the IP string) regardless of how many
// instances the entry carries — TestLookupResponseAllocs pins it.
type lookupScratch struct {
	resp    LookupResponse
	trimmed Entry
	ipBuf   [15]byte
}

var lookupScratchPool = sync.Pool{New: func() any { return new(lookupScratch) }}

// fill renders one answer into the scratch and returns the pooled
// response value. The result aliases the scratch: marshal it before the
// scratch goes back to the pool.
func (sc *lookupScratch) fill(ans Answer, withInstances bool) *LookupResponse {
	sc.resp = LookupResponse{
		IP:      string(netsim.AppendIP(sc.ipBuf[:0], ans.IP)),
		Anycast: ans.Anycast,
		Version: ans.Version,
	}
	if ans.Entry != nil {
		sc.resp.Prefix = ans.Entry.PrefixString()
		if withInstances {
			sc.resp.Entry = ans.Entry
		} else {
			sc.trimmed = *ans.Entry
			sc.trimmed.Instances = nil
			sc.resp.Entry = &sc.trimmed
		}
	}
	return &sc.resp
}

func (a *API) handleHealth(w http.ResponseWriter, _ *http.Request) int {
	var reloadErr string
	if a.reloader != nil {
		reloadErr = a.reloader.LastError()
	}
	if !a.store.Ready() {
		body := map[string]any{"status": "starting"}
		if reloadErr != "" {
			body["reload_error"] = reloadErr
		}
		return writeJSONStatus(w, http.StatusServiceUnavailable, body)
	}
	snap := a.store.Current()
	body := map[string]any{
		"status":   "ok",
		"version":  snap.Version(),
		"prefixes": snap.Len(),
	}
	// A degraded campaign still serves (the paper's censuses survived
	// PlanetLab attrition the same way), and so does a node whose newest
	// snapshot file was rejected, but the health check says so: the body
	// flips to "degraded" and names the quarantined count or the reason
	// while the 200 keeps load balancers routing to the node.
	if h := snap.Health(); h.Degraded() {
		body["status"] = "degraded"
		body["quarantined_vps"] = len(h.Quarantined)
	}
	if reloadErr != "" {
		body["status"] = "degraded"
		body["reload_error"] = reloadErr
	}
	return writeJSONStatus(w, http.StatusOK, body)
}

// handleLookup classifies one IP: GET /v1/lookup?ip=8.8.8.8[&instances=1].
func (a *API) handleLookup(w http.ResponseWriter, r *http.Request) int {
	raw := r.URL.Query().Get("ip")
	if raw == "" {
		return writeJSONStatus(w, http.StatusBadRequest, errBody("missing ?ip="))
	}
	ip, err := netsim.ParseIP(raw)
	if err != nil {
		return writeJSONStatus(w, http.StatusBadRequest, errBody(err.Error()))
	}
	if !a.store.Ready() {
		return writeJSONStatus(w, http.StatusServiceUnavailable, errBody("no snapshot yet"))
	}
	ans := a.store.Lookup(ip)
	sc := lookupScratchPool.Get().(*lookupScratch)
	defer lookupScratchPool.Put(sc)
	return writeJSONStatus(w, http.StatusOK, sc.fill(ans, r.URL.Query().Get("instances") != ""))
}

// handleBatch classifies a JSON list of IPs: POST /v1/lookup/batch with
// body ["8.8.8.8", "1.1.1.1"] (or {"ips": [...]}).
func (a *API) handleBatch(w http.ResponseWriter, r *http.Request) int {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, a.maxBody))
	if err != nil {
		// An oversize body is the client exceeding a documented limit,
		// not a malformed request: 413, matching the oversize-batch path.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return writeJSONStatus(w, http.StatusRequestEntityTooLarge,
				errBody(fmt.Sprintf("body exceeds limit of %d bytes", tooLarge.Limit)))
		}
		return writeJSONStatus(w, http.StatusBadRequest, errBody(fmt.Sprintf("bad batch body: %v", err)))
	}
	var raw []string
	if err := json.Unmarshal(body, &raw); err != nil {
		// Accept the wrapped form too.
		var alt struct {
			IPs []string `json:"ips"`
		}
		if err2 := json.Unmarshal(body, &alt); err2 != nil || alt.IPs == nil {
			return writeJSONStatus(w, http.StatusBadRequest, errBody(fmt.Sprintf("bad batch body: %v", err)))
		}
		raw = alt.IPs
	}
	if len(raw) == 0 {
		return writeJSONStatus(w, http.StatusBadRequest, errBody("empty batch"))
	}
	if len(raw) > maxBatch {
		return writeJSONStatus(w, http.StatusRequestEntityTooLarge,
			errBody(fmt.Sprintf("batch of %d exceeds limit %d", len(raw), maxBatch)))
	}
	ips := make([]netsim.IP, len(raw))
	for i, sIP := range raw {
		ip, err := netsim.ParseIP(sIP)
		if err != nil {
			return writeJSONStatus(w, http.StatusBadRequest, errBody(err.Error()))
		}
		ips[i] = ip
	}
	if !a.store.Ready() {
		return writeJSONStatus(w, http.StatusServiceUnavailable, errBody("no snapshot yet"))
	}
	answers := a.store.LookupBatch(ips)
	// One response slice plus one trimmed-entry slice for the whole
	// batch, instead of one heap Entry per anycast answer.
	out := make([]LookupResponse, len(answers))
	trimmed := make([]Entry, len(answers))
	for i, ans := range answers {
		out[i] = LookupResponse{IP: ans.IP.String(), Anycast: ans.Anycast, Version: ans.Version}
		if ans.Entry != nil {
			out[i].Prefix = ans.Entry.PrefixString()
			trimmed[i] = *ans.Entry
			trimmed[i].Instances = nil
			out[i].Entry = &trimmed[i]
		}
	}
	return writeJSONStatus(w, http.StatusOK, out)
}

// SnapshotInfo is the JSON shape of /v1/snapshot.
type SnapshotInfo struct {
	Version       uint64    `json:"version"`
	CensusRound   uint64    `json:"census_round"`
	CensusesMixed int       `json:"censuses_combined"`
	BuiltAt       time.Time `json:"built_at"`
	Prefixes      int       `json:"anycast_prefixes"`
	ASes          int       `json:"ases"`
	Replicas      int       `json:"replicas"`
}

func (a *API) handleSnapshot(w http.ResponseWriter, _ *http.Request) int {
	snap := a.store.Current()
	if snap == nil {
		return writeJSONStatus(w, http.StatusServiceUnavailable, errBody("no snapshot yet"))
	}
	return writeJSONStatus(w, http.StatusOK, SnapshotInfo{
		Version:       snap.Version(),
		CensusRound:   snap.Round(),
		CensusesMixed: snap.Rounds(),
		BuiltAt:       snap.BuiltAt(),
		Prefixes:      snap.Len(),
		ASes:          snap.ASes(),
		Replicas:      snap.TotalReplicas(),
	})
}

func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) int {
	body := map[string]any{
		"store":     a.store.Stats(),
		"endpoints": a.endpointStats(),
	}
	if snap := a.store.Current(); snap != nil {
		body["campaign_health"] = snap.Health()
	}
	if a.reloader != nil {
		body["reloader"] = a.reloader.Stats()
	}
	return writeJSONStatus(w, http.StatusOK, body)
}

func (a *API) endpointStats() map[string]EndpointStats {
	out := make(map[string]EndpointStats, len(a.metrics))
	for name, m := range a.metrics {
		out[name] = m.stats()
	}
	return out
}

func errBody(msg string) map[string]string { return map[string]string{"error": msg} }

func writeJSONStatus(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return http.StatusInternalServerError
	}
	return status
}
