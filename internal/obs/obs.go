// Package obs is the observability spine of the map: dependency-free
// counters, gauges, and fixed-bucket histograms behind a named registry
// with a Prometheus text-exposition (v0.0.4) http.Handler, in the mold
// of Verfploeter's promauto /metrics endpoint next to its measurement
// service. The module has zero external dependencies and this package
// keeps it that way: instruments are plain atomics, exposition is plain
// text.
//
// Instruments are cheap enough for hot paths (one atomic op per event)
// but the probing inner loop stays untouched on principle: subsystems
// observe at run/round/request granularity, never per probe
// (TestRunZeroAllocsPerProbe pins it).
//
// All instrument methods are safe on a nil receiver (they no-op or
// return zero), so call sites can thread optional metrics without
// guarding every observation.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a series. Series of the
// same family (metric name) are distinguished by their label sets.
type Label struct {
	Name  string
	Value string
}

// L builds a label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing event counter. The zero value
// is usable but unregistered; get registered counters from
// Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down (sizes, versions,
// ages).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add offsets the value by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative ("le") buckets,
// Prometheus-style: bucket i counts observations <= bounds[i], plus an
// implicit +Inf bucket, a running sum and a total count. Observations
// are two atomic adds and one CAS loop — no locks, no allocation.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0: the idiom for
// latency histograms.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefBuckets are general-purpose latency buckets in seconds (the
// Prometheus client default): 5ms up to 10s.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// FastBuckets resolve the sub-millisecond serving path (lookup handlers,
// shard folds): 10µs up to 1s.
var FastBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1}

// ExpBuckets returns n buckets starting at start, each factor times the
// previous — for when the default spreads don't fit.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled instance of a family: exactly one of the
// instrument fields is set.
type series struct {
	labels    []Label
	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// family is every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// Registry names and collects instruments and renders them in the
// Prometheus text format. Registration order is exposition order, so
// scrapes are deterministic. Registering the same name with a different
// type, or the same name and label set twice, panics: both are wiring
// bugs, caught at startup.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, counterKind, &series{labels: labels, counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge to subsystems that already keep their
// own atomic counters (prober run stats, store counters, coordinator
// events). fn must be safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, counterKind, &series{labels: labels, counterFn: fn})
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, gaugeKind, &series{labels: labels, gauge: g})
	return g
}

// GaugeFunc registers a gauge sampled from fn at exposition time
// (snapshot age, cache size). fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, gaugeKind, &series{labels: labels, gaugeFn: fn})
}

// Histogram registers and returns a histogram series over the given
// bucket upper bounds (which must be sorted ascending; the +Inf bucket
// is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not sorted", name))
	}
	bounds := append([]float64(nil), buckets...)
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.register(name, help, histogramKind, &series{labels: labels, hist: h})
	return h
}

func (r *Registry) register(name, help string, k kind, s *series) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range s.labels {
		if !validName(l.Name) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", name, l.Name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, k))
	}
	key := labelKey(s.labels)
	for _, have := range f.series {
		if labelKey(have.labels) == key {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, key))
		}
	}
	f.series = append(f.series, s)
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	key := "{"
	for i, l := range labels {
		if i > 0 {
			key += ","
		}
		key += l.Name + "=" + l.Value
	}
	return key + "}"
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* (colons reserved for rules, still legal).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
