package cluster

import "anycastmap/internal/obs"

// RegisterMetrics exposes the coordinator on r: its Stats counters as
// anycastmap_cluster_* series read at scrape time, so a scrape and Stats
// never disagree; agents_live as joined − lost; and the one live
// instrument, the latency of folding a unit's rows.
func (c *Coordinator) RegisterMetrics(r *obs.Registry) {
	counter := func(name, help string, field func(Stats) int) {
		r.CounterFunc(name, help, func() uint64 { return uint64(field(c.Stats())) })
	}
	counter("anycastmap_cluster_agents_joined_total", "Agents that completed the hello handshake.",
		func(s Stats) int { return s.AgentsJoined })
	counter("anycastmap_cluster_agents_lost_total", "Agents dropped (disconnect, protocol violation, or expiry).",
		func(s Stats) int { return s.AgentsLost })
	r.GaugeFunc("anycastmap_cluster_agents_live", "Agents currently registered and alive.", func() float64 {
		s := c.Stats()
		return float64(s.AgentsJoined - s.AgentsLost)
	})
	counter("anycastmap_cluster_leases_total", "Leases granted to agents.",
		func(s Stats) int { return s.Leases })
	counter("anycastmap_cluster_units_total", "(Vantage point, span) units the leases carried.",
		func(s Stats) int { return s.Units })
	counter("anycastmap_cluster_re_leases_total", "Units re-queued after a failure or a lost agent.",
		func(s Stats) int { return s.ReLeases })
	counter("anycastmap_cluster_lease_expiries_total", "Leases past their TTL deadline (the agent is presumed hung).",
		func(s Stats) int { return s.Expired })
	counter("anycastmap_cluster_late_frames_total", "Frames from dropped agents or for ended or foreign leases, dropped unfolded.",
		func(s Stats) int { return s.LateFrames })
	counter("anycastmap_cluster_frames_folded_total", "Units' ShardRows folded into the combined matrix.",
		func(s Stats) int { return s.FramesFolded })
	c.foldSeconds.Store(r.Histogram("anycastmap_cluster_shard_fold_seconds", "Latency of reading and folding one unit's ShardRows.", obs.FastBuckets))
}
