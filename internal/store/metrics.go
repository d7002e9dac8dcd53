package store

import (
	"math"
	"time"

	"anycastmap/internal/obs"
)

// RegisterMetrics exposes the store's serving counters, the snapshot
// gauges, and (when rl is non-nil) the reload counters on r. The
// series read through to the same atomics Stats samples, so scraped
// values always match /v1/stats. NewAPI calls this when APIConfig
// carries a registry; call it directly only for daemons serving a store
// without the HTTP API.
func RegisterMetrics(r *obs.Registry, st *Store, rl *Reloader) {
	r.CounterFunc("anycastmap_store_lookups_total", "Single-IP and batch lookups served.", st.lookups.Load)
	r.CounterFunc("anycastmap_store_snapshot_swaps_total", "Snapshots published (atomic hot-swaps).", st.swaps.Load)
	r.GaugeFunc("anycastmap_store_snapshot_version", "Version of the live snapshot (0 before the first publish).", func() float64 {
		return float64(st.version.Load())
	})
	r.GaugeFunc("anycastmap_store_snapshot_age_seconds", "Age of the live snapshot's census: seconds since census -snapshot built it (NaN before the first publish).", func() float64 {
		snap := st.Current()
		if snap == nil {
			return math.NaN()
		}
		return time.Since(snap.BuiltAt()).Seconds()
	})
	r.GaugeFunc("anycastmap_store_snapshot_prefixes", "Anycast /24s indexed by the live snapshot.", func() float64 {
		snap := st.Current()
		if snap == nil {
			return 0
		}
		return float64(snap.Len())
	})
	r.GaugeFunc("anycastmap_store_snapshot_quarantined_vps", "Vantage points quarantined by the live snapshot's campaign.", func() float64 {
		snap := st.Current()
		if snap == nil {
			return 0
		}
		return float64(len(snap.Health().Quarantined))
	})
	if rl == nil {
		return
	}
	r.CounterFunc("anycastmap_reload_total", "Snapshot files loaded and published.", rl.loads.Load)
	r.CounterFunc("anycastmap_reload_rejected_total", "Snapshot files that failed to open and were not served.", rl.rejects.Load)
}
