// Package prober is the measurement engine of the census, modelled on
// Fastping (Sec. 3.3): an ICMP scanner that walks its target list in a
// randomized LFSR permutation, honours a greylist of hosts that asked not
// to be probed, and paces itself to the configured rate. Like its
// real-world counterpart it is a good Internet citizen: probing too fast
// aggregates replies at the vantage point and loses them (Sec. 3.5 - the
// counter-intuitive lesson that censuses complete sooner when the prober is
// slowed down by an order of magnitude).
package prober

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anycastmap/internal/detrand"
	"anycastmap/internal/lfsr"
	"anycastmap/internal/netsim"
	"anycastmap/internal/obs"
	"anycastmap/internal/platform"
	"anycastmap/internal/record"
)

// Metrics aggregates run-level probing counters across every Run in the
// process. Run observes into it exactly once per returned run — never
// inside the per-probe loop — so the counters cost nothing on the
// zero-alloc hot path (TestRunZeroAllocsPerProbe pins that the loop is
// unchanged with metrics enabled).
type Metrics struct {
	Runs          atomic.Uint64
	ProbesSent    atomic.Uint64
	EchoReplies   atomic.Uint64
	ErrorReplies  atomic.Uint64
	Timeouts      atomic.Uint64
	SourceDropped atomic.Uint64
	FaultLost     atomic.Uint64
	// SpansInFlight counts probing runs — (VP, span) work units —
	// currently executing; spanSeconds records each unit's wall-clock
	// duration. Both are observed at run granularity, never per probe,
	// and spanSeconds stays a no-op until Register wires a histogram.
	SpansInFlight atomic.Int64
	spanSeconds   atomic.Pointer[obs.Histogram]
}

// DefaultMetrics is the process-wide aggregate every Run observes into;
// Register exposes it on a scrape registry.
var DefaultMetrics Metrics

func (m *Metrics) observe(st *Stats) {
	m.Runs.Add(1)
	m.ProbesSent.Add(uint64(st.Sent))
	m.EchoReplies.Add(uint64(st.Echo))
	m.ErrorReplies.Add(uint64(st.Errors))
	m.Timeouts.Add(uint64(st.Timeouts))
	m.SourceDropped.Add(uint64(st.SourceDropped))
	m.FaultLost.Add(uint64(st.FaultLost))
}

// Register exposes the probe counters as anycastmap_probe_* series.
// Probes/s is the scrape-side rate() of anycastmap_probe_probes_sent_total.
func (m *Metrics) Register(r *obs.Registry) {
	r.CounterFunc("anycastmap_probe_runs_total", "Completed per-VP probing runs (including aborted ones).", m.Runs.Load)
	r.CounterFunc("anycastmap_probe_probes_sent_total", "ICMP probes sent across all runs.", m.ProbesSent.Load)
	r.CounterFunc("anycastmap_probe_echo_replies_total", "Echo replies received.", m.EchoReplies.Load)
	r.CounterFunc("anycastmap_probe_error_replies_total", "Greylistable ICMP error replies received.", m.ErrorReplies.Load)
	r.CounterFunc("anycastmap_probe_timeouts_total", "Probes that timed out (includes fault-lost and source-dropped).", m.Timeouts.Load)
	r.CounterFunc("anycastmap_probe_source_dropped_total", "Replies dropped at the vantage point from excessive probing rates.", m.SourceDropped.Load)
	r.CounterFunc("anycastmap_probe_fault_lost_total", "Probes lost to injected flap/burst faults.", m.FaultLost.Load)
	r.GaugeFunc("anycastmap_probe_spans_in_flight", "Probing runs ((VP, span) work units) currently executing.",
		func() float64 { return float64(m.SpansInFlight.Load()) })
	m.spanSeconds.Store(r.Histogram("anycastmap_probe_span_seconds",
		"Wall-clock duration of one (VP, span) probing run.", obs.FastBuckets))
}

// RegisterGreylistGauge exposes a greylist's live size as
// anycastmap_probe_greylist_size{list="..."} — typically the persistent
// blacklist a daemon probes around. A nil greylist reads zero.
func RegisterGreylistGauge(r *obs.Registry, g *Greylist, list string) {
	r.GaugeFunc("anycastmap_probe_greylist_size", "Hosts in the greylist.", func() float64 {
		if g == nil {
			return 0
		}
		return float64(g.Len())
	}, obs.L("list", list))
}

// Greylist is a concurrency-safe set of hosts whose ICMP errors asked us to
// stop probing them (type 3 codes 9, 10 and 13). Entries accumulate during
// a census and merge into the persistent blacklist between censuses.
type Greylist struct {
	mu sync.RWMutex
	m  map[netsim.IP]netsim.ReplyKind
	// frozen caches the immutable read view handed to probing runs;
	// mutations invalidate it. See Freeze.
	frozen atomic.Pointer[FrozenGreylist]
}

// NewGreylist returns an empty greylist.
func NewGreylist() *Greylist {
	return &Greylist{m: make(map[netsim.IP]netsim.ReplyKind)}
}

// Add records a host and the error that put it here.
func (g *Greylist) Add(ip netsim.IP, kind netsim.ReplyKind) {
	g.mu.Lock()
	g.m[ip] = kind
	g.frozen.Store(nil)
	g.mu.Unlock()
}

// FrozenGreylist is an immutable, lock-free membership view of a greylist
// at a point in time: a sorted address slice checked by binary search. A
// census run snapshots the blacklist once and then does per-probe lookups
// without touching the RWMutex - the mutable greylist keeps taking writes
// (for the NEXT census) in the meantime.
type FrozenGreylist struct {
	ips []netsim.IP
}

// Freeze snapshots the greylist. The view is cached until the next
// mutation, so concurrent runs freezing the same blacklist share one
// snapshot. A nil greylist freezes to an empty view.
func (g *Greylist) Freeze() *FrozenGreylist {
	if g == nil {
		return nil
	}
	if f := g.frozen.Load(); f != nil {
		return f
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if f := g.frozen.Load(); f != nil {
		return f
	}
	f := &FrozenGreylist{ips: make([]netsim.IP, 0, len(g.m))}
	for ip := range g.m {
		f.ips = append(f.ips, ip)
	}
	sort.Slice(f.ips, func(a, b int) bool { return f.ips[a] < f.ips[b] })
	g.frozen.Store(f)
	return f
}

// Contains reports membership without locking or allocating. It is safe on
// a nil view (reports false).
func (f *FrozenGreylist) Contains(ip netsim.IP) bool {
	if f == nil {
		return false
	}
	lo, hi := 0, len(f.ips)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.ips[mid] < ip {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(f.ips) && f.ips[lo] == ip
}

// Len returns the number of addresses in the view.
func (f *FrozenGreylist) Len() int {
	if f == nil {
		return 0
	}
	return len(f.ips)
}

// Window returns the sub-view covering addresses in [lo, hi]. A probing
// run over a narrow target span binary-searches the window's handful of
// entries instead of the full blacklist (millions of entries at paper
// scale) on every probe. Safe on a nil view, which windows to empty.
func (f *FrozenGreylist) Window(lo, hi netsim.IP) FrozenGreylist {
	if f == nil {
		return FrozenGreylist{}
	}
	a, b := 0, len(f.ips)
	for a < b {
		mid := int(uint(a+b) >> 1)
		if f.ips[mid] < lo {
			a = mid + 1
		} else {
			b = mid
		}
	}
	c, d := a, len(f.ips)
	for c < d {
		mid := int(uint(c+d) >> 1)
		if f.ips[mid] <= hi {
			c = mid + 1
		} else {
			d = mid
		}
	}
	return FrozenGreylist{ips: f.ips[a:c]}
}

// Contains reports whether the host is greylisted.
func (g *Greylist) Contains(ip netsim.IP) bool {
	g.mu.RLock()
	_, ok := g.m[ip]
	g.mu.RUnlock()
	return ok
}

// Len returns the number of greylisted hosts.
func (g *Greylist) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.m)
}

// Merge folds other into g. Merging nil or g itself is a no-op, and the
// frozen view survives a merge that adds no host.
func (g *Greylist) Merge(other *Greylist) {
	if other == nil || other == g {
		return
	}
	other.mu.RLock()
	defer other.mu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	grew := false
	for ip, k := range other.m {
		if _, ok := g.m[ip]; !ok {
			grew = true
		}
		g.m[ip] = k
	}
	if grew {
		g.frozen.Store(nil)
	}
}

// Breakdown counts entries by ICMP error kind (Sec. 3.3 reports 98.5%
// administratively filtered).
func (g *Greylist) Breakdown() map[netsim.ReplyKind]int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[netsim.ReplyKind]int)
	for _, k := range g.m {
		out[k]++
	}
	return out
}

// Targets returns the greylisted addresses as a set usable with
// Hitlist.Without.
func (g *Greylist) Targets() map[netsim.IP]bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[netsim.IP]bool, len(g.m))
	for ip := range g.m {
		out[ip] = true
	}
	return out
}

// Config tunes one probing run.
type Config struct {
	// Rate is the probing rate in probes per second. The default 1,000
	// is the deliberately slowed-down Fastping rate that avoids
	// saturating the vantage point's access network; 10,000 is the rate
	// that triggered heterogeneous reply drops.
	Rate float64
	// Round is the census round; it decorrelates per-probe jitter
	// between censuses.
	Round uint64
	// Seed decorrelates the LFSR permutation between runs.
	Seed uint64
	// Attempt is the retry attempt number within the round (0 for the
	// first try). It is threaded to the world's fault plan so a vantage
	// point that crashed can recover — or crash again — on retry; it
	// does not change the permutation or the RTT draws, so samples from
	// different attempts of the same round agree.
	Attempt int
	// Wire routes every probe through the packet codecs (IPv4 + ICMP
	// marshal on send, parse on receive) instead of the fast path. The
	// two are behaviourally identical; wire mode buys fidelity at a
	// modest CPU cost.
	Wire bool
}

func (c Config) rate() float64 {
	if c.Rate <= 0 {
		return 1000
	}
	return c.Rate
}

// Stats summarizes one vantage point's census run.
type Stats struct {
	VP            platform.VP
	Sent          int
	Echo          int
	Errors        int
	Timeouts      int
	SourceDropped int
	// FaultLost counts probes lost to injected flap/burst faults; they
	// are included in Timeouts.
	FaultLost int
	// Completion is the simulated wall-clock duration of the run,
	// including the host's load factor (Fig. 8). Only probes actually
	// sent take wall-clock time: greylist-skipped targets cost nothing.
	Completion time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: sent=%d echo=%d err=%d timeout=%d dropped=%d faultlost=%d in %v",
		s.VP.Name, s.Sent, s.Echo, s.Errors, s.Timeouts, s.SourceDropped, s.FaultLost, s.Completion.Round(time.Second))
}

// Run probes every target from the vantage point, skipping greylisted
// hosts, and streams recordable samples to sink (which may be nil). It
// returns the run statistics and the greylist additions discovered during
// the run.
//
// A wire-path failure (packet marshal/parse) aborts the run and is
// returned as an error together with the partial statistics, so one
// misbehaving vantage point cannot take down a whole census. When the
// world carries a fault plan, an injected VP crash aborts the run the same
// way with a *netsim.VPCrashError (retryable via Config.Attempt), and
// flap/burst faults surface as elevated timeouts in the statistics.
func Run(w *netsim.World, vp platform.VP, targets []netsim.IP, skip *Greylist, cfg Config, sink func(record.Sample)) (Stats, *Greylist, error) {
	var isink func(int, record.Sample)
	if sink != nil {
		isink = func(_ int, smp record.Sample) { sink(smp) }
	}
	return RunIndexed(w, vp, targets, skip, cfg, isink)
}

// RunIndexed is Run with the target's index in targets passed alongside
// each sample. Shard executors fold samples into a row positionally; the
// probe loop already knows the index it drew from the permutation, so
// handing it to the sink spares the caller a target→index lookup per
// reply — at census scale that lookup (or the map backing it) dominates a
// narrow span's probing cost. It plans the span for this one run; callers
// probing a span from many vantage points share one Plan through RunPlan.
func RunIndexed(w *netsim.World, vp platform.VP, targets []netsim.IP, skip *Greylist, cfg Config, sink func(int, record.Sample)) (Stats, *Greylist, error) {
	return RunPlan(w, vp, NewPlan(w, targets, skip), cfg, sink)
}

// Plan is the vantage-point-independent half of probing one target span:
// the world's span plan and the greylist mask, a bit per target that the
// blacklist skips. Both are read-only once built, so every vantage point
// probing the span in a round shares one Plan.
type Plan struct {
	targets []netsim.IP
	span    *netsim.SpanPlan
	skip    []uint64 // nil when the blacklist holds none of the targets
}

// NewPlan plans probing targets around the hosts skip holds at the time
// of the call.
func NewPlan(w *netsim.World, targets []netsim.IP, skip *Greylist) *Plan {
	pl := &Plan{targets: targets, span: w.PlanSpan(targets)}
	if len(targets) == 0 {
		return pl
	}
	// Windowing the frozen blacklist down to the span's address range
	// first keeps each binary search to the span's handful of entries
	// (the blacklist holds millions at paper scale).
	lo, hi := targets[0], targets[0]
	for _, target := range targets[1:] {
		lo, hi = min(lo, target), max(hi, target)
	}
	win := skip.Freeze().Window(lo, hi)
	if win.Len() == 0 {
		return pl
	}
	pl.skip = make([]uint64, (len(targets)+63)/64)
	for i, target := range targets {
		if win.Contains(target) {
			pl.skip[i>>6] |= 1 << (i & 63)
		}
	}
	return pl
}

// Len returns the number of targets the plan covers.
func (pl *Plan) Len() int { return len(pl.targets) }

// RunPlan is RunIndexed over a planned span.
func RunPlan(w *netsim.World, vp platform.VP, plan *Plan, cfg Config, sink func(int, record.Sample)) (Stats, *Greylist, error) {
	targets := plan.targets
	stats := Stats{VP: vp}
	// One observation per run, on every return path; the per-probe loop
	// never touches the metrics.
	started := time.Now()
	DefaultMetrics.SpansInFlight.Add(1)
	defer func() {
		DefaultMetrics.SpansInFlight.Add(-1)
		DefaultMetrics.spanSeconds.Load().ObserveSince(started)
		DefaultMetrics.observe(&stats)
	}()
	found := NewGreylist()
	n := uint64(len(targets))
	if n == 0 {
		return stats, found, nil
	}

	perm, err := lfsr.NewPermutation(n, detrand.Hash64(cfg.Seed, uint64(vp.ID), cfg.Round, 0x5CAB))
	if err != nil {
		return stats, found, fmt.Errorf("prober: %w", err)
	}

	rate := cfg.rate()
	dropProb := w.SourceDropProb(vp, rate)
	msPerProbe := 1000.0 / rate
	finish := func() {
		stats.Completion = time.Duration(float64(stats.Sent) / rate * vp.LoadFactor * float64(time.Second))
	}

	faults := w.Faults()
	crashAt, crashes := faults.CrashIndex(vp.ID, cfg.Round, cfg.Attempt, n)

	// The inner loop is mutex-, map- and allocation-free per probe: the
	// greylist is a bit per target of the plan, the (VP, span) slab
	// session is bound to the plan once, and greylist discoveries go into
	// the goroutine-local `found` map directly. Per probe the loop touches
	// only the span slabs and the per-round draws, so the probe rate stays
	// flat from 20k-target runs to full-Internet censuses.
	skipped := plan.skip
	var span netsim.SpanSession
	if !cfg.Wire {
		span = w.PlannedSession(vp, plan.span)
	}

	for i := uint64(0); ; i++ {
		idx, ok := perm.Next()
		if !ok {
			break
		}
		if crashes && i >= crashAt {
			// The vantage point dies under the prober mid-run: the
			// samples gathered so far stand, the rest never happen.
			finish()
			return stats, found, &netsim.VPCrashError{
				VP: vp.Name, Round: cfg.Round, Attempt: cfg.Attempt, ProbeIndex: i,
			}
		}
		if skipped != nil && skipped[idx>>6]&(1<<(idx&63)) != 0 {
			continue
		}
		target := targets[idx]
		stats.Sent++
		// The probe clock advances only for probes actually sent:
		// greylist-skipped targets consume no wall-clock time.
		tsMs := uint32(float64(stats.Sent-1) * msPerProbe * vp.LoadFactor)
		if faults.ReplyLost(vp.ID, cfg.Round, i, n) {
			// Flap window or loss burst: the probe is out, nothing
			// comes back.
			stats.FaultLost++
			stats.Timeouts++
			continue
		}
		var reply netsim.Reply
		if cfg.Wire {
			// Full packet path: marshal the probe, exchange datagrams,
			// parse the reply like a pcap-based deployment would.
			src := netsim.IP(0x0A000000 | uint32(vp.ID)&0xFFFF)
			pkt, wireReply, err := w.ExchangeICMP(vp, src, target, uint16(vp.ID), uint16(i), cfg.Round)
			if err != nil {
				return stats, found, fmt.Errorf("prober: wire path to %v: %w", target, err)
			}
			decoded, err := netsim.DecodeICMPReply(pkt)
			if err != nil {
				return stats, found, fmt.Errorf("prober: decode reply from %v: %w", target, err)
			}
			if decoded.Kind != wireReply.Kind {
				return stats, found, fmt.Errorf("prober: wire decode of %v reply disagrees with simulation (%v vs %v)", target, decoded.Kind, wireReply.Kind)
			}
			reply = wireReply
		} else {
			reply = span.ICMP(int(idx), cfg.Round)
		}

		// Replies aggregate near the vantage point: at excessive rates a
		// fraction is dropped before Fastping sees them.
		if reply.Kind != netsim.ReplyTimeout && dropProb > 0 &&
			detrand.UnitFloat(cfg.Seed, uint64(vp.ID), uint64(target), cfg.Round, 0xD86) < dropProb {
			stats.SourceDropped++
			stats.Timeouts++
			continue
		}

		switch {
		case reply.Kind == netsim.ReplyEcho:
			stats.Echo++
		case reply.Kind.Greylistable():
			stats.Errors++
			// found is local to this run until returned; writing the map
			// directly keeps the loop free of lock acquisitions.
			found.m[target] = reply.Kind
		default:
			stats.Timeouts++
			continue // timeouts are not recorded
		}
		if sink != nil {
			sink(int(idx), record.Sample{Target: target, TimestampMs: tsMs, Kind: reply.Kind, RTT: reply.RTT})
		}
	}

	finish()
	return stats, found, nil
}

// BuildBlacklist runs the preliminary single-vantage census of Sec. 3.3:
// before probing from O(100) VPs, one census from a single VP seeds the
// blacklist with the hosts that object to being probed.
func BuildBlacklist(w *netsim.World, vp platform.VP, targets []netsim.IP, cfg Config) (*Greylist, error) {
	_, grey, err := Run(w, vp, targets, nil, cfg, nil)
	return grey, err
}

// Snapshot returns a copy of the greylist contents for persistence.
func (g *Greylist) Snapshot() map[netsim.IP]netsim.ReplyKind {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[netsim.IP]netsim.ReplyKind, len(g.m))
	for ip, k := range g.m {
		out[ip] = k
	}
	return out
}

// FromSnapshot rebuilds a greylist from a persisted snapshot.
func FromSnapshot(m map[netsim.IP]netsim.ReplyKind) *Greylist {
	g := NewGreylist()
	for ip, k := range m {
		g.m[ip] = k
	}
	return g
}
