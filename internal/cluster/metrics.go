package cluster

import (
	"time"

	"anycastmap/internal/obs"
)

// Metrics is the coordinator instrument set: the live form of Stats,
// exported through an obs.Registry so the control plane's event
// counters become scrapeable time series. Counters mirror the Stats
// fields one for one (TestCoordinatorMetricsMatchStats pins the
// equality); AgentsLive and ShardFoldSeconds have no Stats counterpart.
// All helpers are nil-safe: a coordinator without metrics pays one
// pointer test per event.
type Metrics struct {
	AgentsJoined  *obs.Counter
	AgentsLost    *obs.Counter
	AgentsLive    *obs.Gauge
	Leases        *obs.Counter
	Units         *obs.Counter
	ReLeases      *obs.Counter
	LeaseExpiries *obs.Counter
	LateFrames    *obs.Counter
	FramesFolded  *obs.Counter
	// ShardFoldSeconds is the latency of folding one ShardRows frame
	// into the campaign's combined matrix.
	ShardFoldSeconds *obs.Histogram
}

// NewMetrics registers the cluster series on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		AgentsJoined:     r.Counter("anycastmap_cluster_agents_joined_total", "Agents that completed the hello handshake."),
		AgentsLost:       r.Counter("anycastmap_cluster_agents_lost_total", "Agents dropped (disconnect, protocol violation, or expiry)."),
		AgentsLive:       r.Gauge("anycastmap_cluster_agents_live", "Agents currently registered and alive."),
		Leases:           r.Counter("anycastmap_cluster_leases_total", "Leases granted to agents."),
		Units:            r.Counter("anycastmap_cluster_units_total", "(Vantage point, span) units the leases carried."),
		ReLeases:         r.Counter("anycastmap_cluster_re_leases_total", "Units re-queued after a failure or a lost agent."),
		LeaseExpiries:    r.Counter("anycastmap_cluster_lease_expiries_total", "Leases past their TTL deadline (the agent is presumed hung)."),
		LateFrames:       r.Counter("anycastmap_cluster_late_frames_total", "Frames from dropped agents or for ended or foreign leases, dropped unfolded."),
		FramesFolded:     r.Counter("anycastmap_cluster_frames_folded_total", "Units' ShardRows folded into the combined matrix."),
		ShardFoldSeconds: r.Histogram("anycastmap_cluster_shard_fold_seconds", "Latency of folding one ShardRows frame.", obs.FastBuckets),
	}
}

func (m *Metrics) joined() {
	if m != nil {
		m.AgentsJoined.Inc()
		m.AgentsLive.Add(1)
	}
}

func (m *Metrics) lost() {
	if m != nil {
		m.AgentsLost.Inc()
		m.AgentsLive.Add(-1)
	}
}

func (m *Metrics) lease(units int) {
	if m != nil {
		m.Leases.Inc()
		m.Units.Add(uint64(units))
	}
}

func (m *Metrics) reLease() {
	if m != nil {
		m.ReLeases.Inc()
	}
}

func (m *Metrics) expired() {
	if m != nil {
		m.LeaseExpiries.Inc()
	}
}

func (m *Metrics) late() {
	if m != nil {
		m.LateFrames.Inc()
	}
}

func (m *Metrics) folded(d time.Duration) {
	if m != nil {
		m.FramesFolded.Inc()
		m.ShardFoldSeconds.Observe(d.Seconds())
	}
}
