package route

import "anycastmap/internal/obs"

// answerBuckets resolve the sub-microsecond answer path: the decode →
// decide → encode pipeline runs in hundreds of nanoseconds, far below
// obs.FastBuckets' 10µs floor, so the histogram starts at 0.5µs.
var answerBuckets = obs.ExpBuckets(5e-7, 2, 18) // 0.5µs .. 65ms

// Metrics is the front-end's obs series. Per-policy and per-rcode
// counters are fixed arrays indexed by the enum, so the packet path
// observes without map lookups or label rendering. A nil *Metrics (and
// the nil instruments inside a bare one) observe as no-ops.
type Metrics struct {
	// Queries counts every received packet, Dropped the ones answered
	// with silence (responses, runts, oversize datagrams).
	Queries *obs.Counter
	Dropped *obs.Counter
	// Answers counts decided queries by the policy that decided.
	Answers [numPolicies]*obs.Counter
	// Rcodes counts responses by rcode.
	Rcodes [numRcodes]*obs.Counter
	// Latency is the answer path's seconds histogram (receive to
	// response ready).
	Latency *obs.Histogram
}

// NewMetrics registers the anycastmap_route_* series. A nil registry
// returns counting-but-unexposed instruments (handy in benchmarks).
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{}
	if reg == nil {
		m.Queries = &obs.Counter{}
		m.Dropped = &obs.Counter{}
		for i := range m.Answers {
			m.Answers[i] = &obs.Counter{}
		}
		for i := range m.Rcodes {
			m.Rcodes[i] = &obs.Counter{}
		}
		return m // Latency stays nil: Observe is nil-safe
	}
	m.Queries = reg.Counter("anycastmap_route_queries_total",
		"DNS routing queries received.")
	m.Dropped = reg.Counter("anycastmap_route_dropped_total",
		"Packets dropped without a response (non-queries, runts, oversize datagrams).")
	for p := PolicyNone; p < numPolicies; p++ {
		m.Answers[p] = reg.Counter("anycastmap_route_answers_total",
			"Routing decisions made, by deciding policy (policy=none answered without a replica).",
			obs.L("policy", p.String()))
	}
	for rc, name := range [numRcodes]string{"noerror", "formerr", "servfail", "nxdomain", "notimp", "refused"} {
		m.Rcodes[rc] = reg.Counter("anycastmap_route_rcode_total",
			"Responses sent, by rcode.", obs.L("rcode", name))
	}
	m.Latency = reg.Histogram("anycastmap_route_answer_seconds",
		"Answer path latency: packet decode to response ready.", answerBuckets)
	return m
}

func (m *Metrics) query() {
	if m != nil {
		m.Queries.Inc()
	}
}

func (m *Metrics) dropped() {
	if m != nil {
		m.Dropped.Inc()
	}
}

func (m *Metrics) answered(p Policy, rcode int) {
	if m == nil {
		return
	}
	if p < numPolicies {
		m.Answers[p].Inc()
	}
	if rcode >= 0 && rcode < numRcodes {
		m.Rcodes[rcode].Inc()
	}
}
