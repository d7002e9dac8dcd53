package netsim

import (
	"math"
	"sync"

	"anycastmap/internal/detrand"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// This file is the memoization layer under the probe hot path. A census
// sends millions of probes, but almost everything a probe computes is a
// stable property of the (vantage point, prefix) pair: the ranked nearest
// replicas of a deployment, the stable catchment draw (0xB69), the
// propagation+stretch+access base latency, the per-VP access constant
// (0xB71), the vantage point's prepared location (geo.Point: every
// distance a span resolves starts there) and the hash state of the
// (seed, vp) prefix that every per-probe draw begins with
// (detrand.State). Only the per-round draws - loss, catchment flap,
// queueing jitter - actually vary probe to probe. The session caches the
// stable part per vantage point and leaves the per-round draws, mixed
// from the hoisted prefix, in the inner loop.
// Per-unicast-/24 state (the RTT base) is NOT cached per vantage point -
// at the paper's 10.6M /24s and ~300 VPs that would be tens of gigabytes -
// but per (VP, span) work unit, over a span plan every vantage point
// shares: see PlanSpan and PlannedSession.
//
// Determinism is the contract: every cached value is the output of the
// exact detrand/geo expression the uncached code evaluates, so replies are
// byte-identical with the cache on or off (Config.DisableProbeCache and
// TestSessionCacheBitIdentical enforce this). That works because detrand
// draws are pure functions of their key tuple - skipping or reordering
// draws cannot influence other draws - and because the cached float
// expressions are reassociated only along bitwise-exact lines.

// sessionKey identifies a vantage point. The ID alone is not enough:
// PlanetLab and RIPE Atlas assign overlapping ID ranges, so the location
// disambiguates. LoadFactor is deliberately absent - nothing cached here
// depends on it (jitter, the only load-dependent term, stays live).
type sessionKey struct {
	id       int
	lat, lon float64
}

// candSet is the cached catchment of one (vantage point, deployment) pair:
// the three nearest replicas in rank order, which of them answers while the
// catchment does not flap, and the probe-invariant part of the RTT toward
// that one - the only base a probe reads in every round. The bases toward
// the other two are rebuilt by candBaseMs on the ~5.5% of anycast probes
// whose catchment flaps onto them. 16 bytes: a session is one of these per
// deployment.
type candSet struct {
	baseMs float64  // rttBaseMsDist toward idx[rank]
	idx    [3]int16 // k-th nearest replica index into d.Replicas, -1 if absent
	rank   uint8    // selectRank of the stable base-selection draw (0xB69); 0 for a single-replica list
}

// maxReplicas is the longest replica list candSet.idx can index; New
// refuses a deployment beyond it.
const maxReplicas = math.MaxInt16

// vpSession holds everything probe-invariant about one vantage point that
// a probe reads in every round. It deliberately carries no
// per-unicast-/24 state: unicast RTT bases are resolved per (VP, span) by
// PlannedSession, so session memory stays O(deployments) per vantage
// point - 16 bytes each - at any world size.
type vpSession struct {
	once     sync.Once
	vpAccess float64       // hoisted per-VP access term (0xB71)
	pt       geo.Point     // the vantage point's location, prepared
	st       detrand.State // vpState: the prefix of every per-VP draw
	cands    []candSet     // indexed by Deployment.idx
}

// sessionTable maps sessionKey -> *vpSession. It lives behind a pointer on
// World so WithFaults views share one table: fault plans never change RTT
// draws, only whether a reply arrives.
type sessionTable struct {
	m sync.Map
}

// session returns the vantage point's memoized session, building it on
// first use, or nil when the cache is disabled (callers then take the
// uncached code path, which is the behavioral reference).
func (w *World) session(vp platform.VP) *vpSession {
	if w.sessions == nil || w.cfg.DisableProbeCache {
		return nil
	}
	key := sessionKey{id: vp.ID, lat: vp.Loc.Lat, lon: vp.Loc.Lon}
	v, ok := w.sessions.m.Load(key)
	if !ok {
		v, _ = w.sessions.m.LoadOrStore(key, new(vpSession))
	}
	s := v.(*vpSession)
	s.once.Do(func() { w.buildSession(s, vp) })
	return s
}

// buildSession ranks every deployment's replicas by distance from the
// vantage point and caches the RTT base toward the one that answers while
// the catchment is stable. Everything that does not depend on the vantage
// point is read from the world's flat replica geometry (World.places,
// rankGroups, geom, endAccess), so a build is one haversine per distinct
// replica place, then rank group by rank group one three-nearest cascade
// and, for each deployment announcing the list, the two draws that mix the
// vantage point in: the stable catchment draw and one path stretch. It
// allocates twice: the session's slab and the distance vector.
func (w *World) buildSession(s *vpSession, vp platform.VP) {
	s.st = w.vpState(vp)
	s.pt = geo.Prepare(vp.Loc)
	s.vpAccess = w.vpAccessMs(s.st)
	s.cands = make([]candSet, len(w.geom))

	dist := make([]float64, len(w.places))
	for i, p := range w.places {
		dist[i] = geo.PointDistanceKm(s.pt, p)
	}

	for gi := range w.rankGroups {
		g := &w.rankGroups[gi]
		// The same strict-< cascade servingReplicaSlow runs, over the same
		// DistanceKm outputs in the same Replicas order, so the ranking is
		// bit-identical. d0 <= d1 <= d2 throughout, so a distance that is
		// not below d2 matches no case: most of a long list leaves after
		// one compare.
		i0, i1, i2 := -1, -1, -1
		d0, d1, d2 := math.MaxFloat64, math.MaxFloat64, math.MaxFloat64
		for i, slot := range g.slots {
			d := dist[slot]
			if !(d < d2) {
				continue
			}
			switch {
			case d < d0:
				i2, i1, i0 = i1, i0, i
				d2, d1, d0 = d1, d0, d
			case d < d1:
				i2, i1 = i1, i
				d2, d1 = d1, d
			default:
				i2, d2 = i, d
			}
		}
		idx := [3]int16{int16(i0), int16(i1), int16(i2)}
		near := [3]float64{d0, d1, d2}
		for _, di := range g.members {
			dg := &w.geom[di]
			c := &s.cands[di]
			c.idx = idx
			if idx[1] >= 0 {
				c.rank = uint8(selectRank(s.st.With(dg.prefix).With(0xB69).Unit(), idx[2] >= 0))
			}
			c.baseMs = w.geomBaseMs(s, dg, g, idx[c.rank], near[c.rank])
		}
	}
}

// geomBaseMs is the RTT base from the session's vantage point toward
// Replicas[i], distKm away, of the deployment recorded as dg in rank group
// g: pathRTT's base with the endpoint half read from the world's geometry.
func (w *World) geomBaseMs(s *vpSession, dg *deploymentGeom, g *rankGroup, i int16, distKm float64) float64 {
	return w.rttBaseMsDist(s.st, dg.prefix, distKm, uint64(g.slots[i]-dg.placeBase), s.vpAccess, w.endAccess[dg.access+int32(i)])
}

// candBaseMs is the RTT base toward the candidate that answers deployment
// di in the given round: the cached one unless the catchment flapped onto
// another rank, in which case that base is rebuilt from the replica
// geometry with the expressions buildSession evaluates - one haversine and
// one path stretch, on about one anycast probe in eighteen.
func (w *World) candBaseMs(s *vpSession, di int32, round uint64) float64 {
	c := &s.cands[di]
	dg := &w.geom[di]
	rank := servingRank(c, s.st, dg.prefix, round)
	if rank == int(c.rank) {
		return c.baseMs
	}
	g := &w.rankGroups[dg.group]
	i := c.idx[rank]
	return w.geomBaseMs(s, dg, g, i, geo.PointDistanceKm(s.pt, w.places[g.slots[i]]))
}

// selectRank maps a base-selection draw to the rank of the candidate that
// answers, with the thresholds of servingReplicaSlow. The caller has
// established that a second candidate exists.
func selectRank(u float64, hasThird bool) int {
	switch {
	case u < 0.70:
		return 0
	case u < 0.90 || !hasThird:
		return 1
	default:
		return 2
	}
}

// servingRank picks which cached candidate answers this round. It mirrors
// the selection of servingReplicaSlow exactly; only the ranking and the
// outcome of the stable 0xB69 draw come from the cache. vpSt is the
// vantage point's vpState, prefix the deployment's uint64(Prefix).
func servingRank(c *candSet, vpSt detrand.State, prefix uint64, round uint64) int {
	if c.idx[1] < 0 {
		return 0 // single-replica deployment: no draws, like the slow path
	}
	if flap := vpSt.With(prefix).With(round); flap.With(0xF1A9).Unit() < 0.12 {
		// Catchment flap: this round routes to a different candidate.
		return selectRank(flap.With(0xB6A).Unit(), c.idx[2] >= 0)
	}
	return int(c.rank)
}

// unicastBaseMs is the RTT base toward the unicast host's home location,
// for ad-hoc and TCP probes; the span path evaluates the same hostBaseMs
// over the host's planned point and access term, so replies stay
// bit-identical across them.
func (w *World) unicastBaseMs(s *vpSession, h *unicastHost, p Prefix24) float64 {
	return w.hostBaseMs(s, p, geo.PrepareCos(h.loc, h.cosLat), w.endpointAccessMs(uint64(p), 0))
}

// hostBaseMs is the RTT base from the session's vantage point toward the
// unicast host of p at pt, endAccess being its endpointAccessMs(p, 0).
func (w *World) hostBaseMs(s *vpSession, p Prefix24, pt geo.Point, endAccess float64) float64 {
	return w.rttBaseMsDist(s.st, uint64(p), geo.PointDistanceKm(s.pt, pt), 0, s.vpAccess, endAccess)
}

// Span classification codes. Everything a probe's outcome depends on that
// is NOT a per-round draw is a stable property of the (VP, target) pair,
// and most of it - which host answers, with which reply kind, from where -
// is a property of the target alone, so a span plan decides it once for
// every vantage point and leaves only the fault check, the loss draw and
// the RTT jitter in the inner loop.
const (
	// spanTimeout marks targets that time out structurally in every
	// round: unallocated prefixes, dead anycast host addresses, unicast
	// non-representatives and silent hosts. probeICMP returns before any
	// per-round draw for all of them, so no draw is skipped unsafely.
	spanTimeout uint8 = iota
	// spanAnycast targets answer from a deployment; the plan's payload
	// holds the deployments index.
	spanAnycast
	// spanUniEcho..spanUniNet are unicast hosts that answer with the
	// corresponding reply kind; the plan holds the host's prepared point
	// and its payload the host's endpointAccessMs as math.Float64bits.
	spanUniEcho
	spanUniAdmin
	spanUniHost
	spanUniNet
	// spanSlow delegates to the full probeICMP path: hijacked prefixes,
	// whose effective endpoint depends on a live per-VP catchment draw.
	spanSlow
)

// SpanPlan is the vantage-point-independent half of resolving a target
// span: three flat, pointer-free slabs - a class byte, a prepared host
// point and a 64-bit payload per target, ~33 bytes - that every vantage
// point probing the span reads and none writes. A census round builds one
// per span and hands it to all of the span's units, so the cursor walk,
// the host records, the anycast lookup with its density draw and the
// endpoint access draw are paid once per target instead of once per
// (VP, target). Hijacks are read when the plan is built, which
// InjectHijack's "before probing starts" contract allows.
type SpanPlan struct {
	targets []IP
	cls     []uint8
	pts     []geo.Point
	payload []uint64
}

// PlanSpan resolves the vantage-point-independent half of a span covering
// exactly the given targets (callers working in [lo, hi) units pass
// targets[lo:hi]). Resolution costs what the span costs, not what the
// world costs: the resolver keeps a cursor into the sorted unicast prefix
// index and moves it with seekPrefix, a galloping search. A dense census
// span, ascending in address order with neighbouring /24s, pays a compare
// or two per target, O(span) in all; a sparse ascending list - a sample of
// a hundred targets, a re-probe of the known-anycast /24s, a dirty set -
// pays O(log gap) per target, never a walk over the prefixes in between; a
// list in no order pays O(log position) per order break, a galloping
// search from the start of the index. Non-unicast targets (~0.03% of a
// census span) add one map lookup. With Config.DisableProbeCache the plan
// holds no slabs and every session over it takes the reference path: the
// resolver is part of the cache and must vanish with it.
func (w *World) PlanSpan(targets []IP) *SpanPlan {
	pl := &SpanPlan{targets: targets}
	if w.cfg.DisableProbeCache {
		return pl
	}
	pl.cls = make([]uint8, len(targets))
	pl.pts = make([]geo.Point, len(targets))
	pl.payload = make([]uint64, len(targets))
	hijacksLive := len(w.hijacks) > 0
	nUni := len(w.unicastPrefix)
	cursor := 0
	prev := Prefix24(0)
	for i, target := range targets {
		p := target.Prefix()
		// Restart on any order break (a span of census targets breaks
		// order never; ad-hoc spans may).
		if p <= prev {
			cursor = 0
		}
		cursor = seekPrefix(w.unicastPrefix, cursor, p)
		prev = p
		if cursor < nUni && w.unicastPrefix[cursor] == p {
			h := &w.unicast[cursor]
			switch {
			case target != h.rep || h.class == classSilent:
				pl.cls[i] = spanTimeout
			case hijacksLive && w.isHijacked(p):
				pl.cls[i] = spanSlow
			default:
				switch h.class {
				case classAdminFiltered:
					pl.cls[i] = spanUniAdmin
				case classHostProhibited:
					pl.cls[i] = spanUniHost
				case classNetProhibited:
					pl.cls[i] = spanUniNet
				default:
					pl.cls[i] = spanUniEcho
				}
				pl.pts[i] = geo.PrepareCos(h.loc, h.cosLat)
				pl.payload[i] = math.Float64bits(w.endpointAccessMs(uint64(p), 0))
			}
			continue
		}
		di, ok := w.byPrefix[p]
		if !ok {
			pl.cls[i] = spanTimeout
			continue
		}
		d := w.deployments[di]
		if target != d.rep && detrand.UnitFloat(w.cfg.Seed, uint64(target), 0xA11E) >= d.Density {
			pl.cls[i] = spanTimeout
			continue
		}
		pl.cls[i] = spanAnycast
		pl.payload[i] = uint64(di)
	}
	return pl
}

// SpanSession is a (vantage point, target span) probing unit: the span's
// shared plan plus one flat slab of its own, the RTT base toward each
// unicast host. The per-probe path then touches only the slabs and the
// per-round draws: no map lookups, no sync.Map, no allocation, and a
// working set of ~45 bytes per span target instead of the whole world's
// prefix index. That keeps the probe rate flat from 20k-target test runs
// to full 6.6M-target censuses, where the global per-probe map walk used
// to cost a DRAM miss per probe.
type SpanSession struct {
	w    *World
	vp   platform.VP
	s    *vpSession
	plan *SpanPlan
	base []float64 // hostBaseMs per unicast-answering target, 0 elsewhere
	// slow forces every probe down the uncached reference path
	// (Config.DisableProbeCache).
	slow bool
}

// ProbeSpanSession is PlanSpan and PlannedSession in one: a session over
// a plan nobody else reads.
func (w *World) ProbeSpanSession(vp platform.VP, targets []IP) SpanSession {
	return w.PlannedSession(vp, w.PlanSpan(targets))
}

// PlannedSession binds the vantage point to a span plan: per unicast host
// one haversine and one path stretch (hostBaseMs), nothing else. The plan
// may come from any WithFaults view of the world; it is only read. Replies
// through the session are bit-identical to ProbeICMP's - the determinism
// tests compare the two - because every planned and cached value is the
// output of the exact expression the reference path evaluates.
func (w *World) PlannedSession(vp platform.VP, plan *SpanPlan) SpanSession {
	s := w.session(vp)
	ss := SpanSession{w: w, vp: vp, s: s, plan: plan}
	if s == nil || plan.cls == nil {
		ss.slow = true
		return ss
	}
	ss.base = make([]float64, len(plan.cls))
	for i, c := range plan.cls {
		if c >= spanUniEcho && c <= spanUniNet {
			ss.base[i] = w.hostBaseMs(s, plan.targets[i].Prefix(), plan.pts[i], math.Float64frombits(plan.payload[i]))
		}
	}
	return ss
}

// seekPrefix returns the smallest i >= from with idx[i] >= p, or len(idx)
// when there is none. It gallops: after idx[from] it tries from+1, +2, +4,
// ... until it has stepped past p, then binary-searches the last step, so
// moving a cursor forward by a gap of g entries costs O(log g) compares -
// one or two when the next target is the next prefix.
func seekPrefix(idx []Prefix24, from int, p Prefix24) int {
	n := len(idx)
	if from >= n || idx[from] >= p {
		return from
	}
	// idx[lo] < p throughout; hi is n or has idx[hi] >= p.
	lo, hi := from, n
	for step := 1; lo+step < n; step <<= 1 {
		if idx[lo+step] >= p {
			hi = lo + step
			break
		}
		lo += step
	}
	lo++
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// isHijacked reports whether a live hijack covers the prefix.
func (w *World) isHijacked(p Prefix24) bool {
	_, ok := w.hijacks[p]
	return ok
}

// ICMP probes the i-th span target in the given round. The fast path
// reads the two slab cells and pays only the per-round draws: target
// fault check, transient loss, catchment flap (anycast) and queueing
// jitter, all mixed from one (target, round) state on top of the
// session's hoisted (seed, vp) prefix.
func (ss *SpanSession) ICMP(i int, round uint64) Reply {
	pl := ss.plan
	target := pl.targets[i]
	if ss.slow {
		return ss.w.probeICMP(ss.s, ss.vp, target, round)
	}
	cls := pl.cls[i]
	if cls == spanTimeout {
		return Reply{Kind: ReplyTimeout}
	}
	if cls == spanSlow {
		return ss.w.probeICMP(ss.s, ss.vp, target, round)
	}
	w := ss.w
	p := target.Prefix()
	if w.faults.TargetUnreachable(p, round) {
		return Reply{Kind: ReplyTimeout}
	}
	probe := probeState(ss.s.st, target, round)
	if lost(probe) {
		return Reply{Kind: ReplyTimeout}
	}
	if cls == spanAnycast {
		return Reply{Kind: ReplyEcho, RTT: w.rttFromBaseMs(w.candBaseMs(ss.s, int32(pl.payload[i]), round), ss.vp.LoadFactor, probe)}
	}
	rtt := w.rttFromBaseMs(ss.base[i], ss.vp.LoadFactor, probe)
	switch cls {
	case spanUniAdmin:
		return Reply{Kind: ReplyAdminFiltered, RTT: rtt}
	case spanUniHost:
		return Reply{Kind: ReplyHostProhibited, RTT: rtt}
	case spanUniNet:
		return Reply{Kind: ReplyNetProhibited, RTT: rtt}
	}
	return Reply{Kind: ReplyEcho, RTT: rtt}
}
