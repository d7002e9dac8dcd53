package netsim

import (
	"math"
	"sync"
	"sync/atomic"

	"anycastmap/internal/detrand"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// This file is the memoization layer under the probe hot path. A census
// sends millions of probes, but almost everything a probe computes is a
// stable property of the (vantage point, prefix) pair: the ranked nearest
// replicas of a deployment, the propagation+stretch+access base latency
// toward the one that answers while the catchment is stable, the per-VP
// access constant (0xB71), the vantage point's prepared location
// (geo.Point: every distance a span resolves starts there) and the hash
// state of the (seed, vp) prefix that every per-probe draw begins with
// (detrand.State). Only the per-round draws - loss, catchment flap,
// queueing jitter - actually vary probe to probe. The session caches per
// vantage point what no target span changes - the ranking, the access
// term, the point and the prefix - and leaves the per-round draws, mixed
// from the hoisted prefix, in the inner loop.
// Per-target state - the RTT base, toward a unicast host or toward the
// replica that answers a deployment - is NOT cached per vantage point: at
// the paper's 10.6M /24s and ~300 VPs that would be tens of gigabytes,
// and even the deployments' bases would be two thirds of a session. A
// unicast host's lives per (VP, span) work unit, over a span plan every
// vantage point shares (see PlanSpan and PlannedSession); a deployment's
// is built by the probe that reads it (servedBaseMs).
//
// Determinism is the contract: every cached value is the output of the
// exact detrand/geo expression the uncached code evaluates, so replies are
// byte-identical with the cache on or off (TestSessionCacheBitIdentical
// holds them to a test-built world without a session table). That works
// because detrand draws are pure functions of their key tuple - skipping
// or reordering draws cannot influence other draws - and because the
// cached float expressions are reassociated only along bitwise-exact
// lines.

// sessionKey identifies a vantage point. The ID alone is not enough:
// PlanetLab and RIPE Atlas assign overlapping ID ranges, so the location
// disambiguates. LoadFactor is deliberately absent - nothing cached here
// depends on it (jitter, the only load-dependent term, stays live).
type sessionKey struct {
	id       int
	lat, lon float64
}

// maxReplicas is the longest replica list a vpSession.ranked entry can
// index; New refuses a deployment beyond it.
const maxReplicas = math.MaxInt16

// vpSession holds everything about one vantage point that a probe reads in
// every round and that no target span changes: its prepared location, the
// hash prefix of its draws, its access term and, per rank group -
// deployments announcing the same replica list rank it alike - its three
// nearest replicas, 6 bytes in one slab. Which of the three answers is
// servingRank's draw, made per anycast probe (servedBaseMs) and by the
// ground-truth selection (servingReplica), and the RTT base toward it is
// built by the probe that reads it. So the session carries nothing per
// deployment and nothing per unicast /24: its memory is O(rank groups) per
// vantage point at any world size.
type vpSession struct {
	once     sync.Once
	vpAccess float64       // hoisted per-VP access term (0xB71)
	pt       geo.Point     // the vantage point's location, prepared
	st       detrand.State // vpState: the prefix of every per-VP draw
	ranked   [][3]int16    // indexed by rank group: k-th nearest replica index into Replicas, -1 if absent
}

// sessionTable maps sessionKey -> *vpSession. It lives behind a pointer on
// World so WithFaults views share one table: fault plans never change RTT
// draws, only whether a reply arrives. Every ad-hoc probe and every
// (VP, span) unit looks its session up, and after the first few lookups
// of each vantage point none inserts, so the table is read-mostly: an
// open-addressed array of entry pointers, published whole through an
// atomic pointer. A lookup takes no lock, boxes no key and allocates
// nothing; an insert takes the lock, stores into a free slot of the
// current array and, when that would fill it past half, first copies the
// entries into one twice as large, so inserts cost amortised O(1). A
// reader still walking a replaced array may miss a newer entry; it then
// looks again under the lock.
type sessionTable struct {
	slots atomic.Pointer[[]atomic.Pointer[sessionEntry]] // power-of-two length, at most half full
	mu    sync.Mutex                                     // serializes inserts
	n     int                                            // entries, under mu
}

// sessionEntry is one vantage point's slot: its key and its session, in
// one allocation.
type sessionEntry struct {
	key sessionKey
	s   vpSession
}

// hash mixes the key's three fields, splitmix64 step by step, so every
// bit reaches the low bits a slot index reads. Adding zero turns -0 into
// +0: two keys that compare equal - as a map's keys would - hash equal.
func (k sessionKey) hash() uint64 {
	var h detrand.State
	return uint64(h.With(uint64(k.id)).With(math.Float64bits(k.lat + 0)).With(math.Float64bits(k.lon + 0)))
}

// newSessionTable returns an empty table.
func newSessionTable() *sessionTable {
	t := new(sessionTable)
	slots := make([]atomic.Pointer[sessionEntry], 64)
	t.slots.Store(&slots)
	return t
}

// find returns the key's entry in slots, or nil.
func find(slots []atomic.Pointer[sessionEntry], key sessionKey, h uint64) *sessionEntry {
	mask := uint64(len(slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := slots[i].Load()
		if e == nil || e.key == key {
			return e
		}
	}
}

// insert returns the key's entry, adding it unless a racing insert has.
func (t *sessionTable) insert(key sessionKey, h uint64) *sessionEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	slots := *t.slots.Load()
	if e := find(slots, key, h); e != nil {
		return e
	}
	if 2*(t.n+1) > len(slots) {
		grown := make([]atomic.Pointer[sessionEntry], 2*len(slots))
		for i := range slots {
			if e := slots[i].Load(); e != nil {
				place(grown, e, e.key.hash())
			}
		}
		t.slots.Store(&grown)
		slots = grown
	}
	e := &sessionEntry{key: key}
	place(slots, e, h)
	t.n++
	return e
}

// place stores e in the first free slot of its probe sequence.
func place(slots []atomic.Pointer[sessionEntry], e *sessionEntry, h uint64) {
	mask := uint64(len(slots) - 1)
	i := h & mask
	for slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	slots[i].Store(e)
}

// session returns the vantage point's memoized session, building it on
// first use, or nil on a world without a session table (callers then take
// the uncached code path, which is the behavioral reference).
func (w *World) session(vp platform.VP) *vpSession {
	t := w.sessions
	if t == nil {
		return nil
	}
	key := sessionKey{id: vp.ID, lat: vp.Loc.Lat, lon: vp.Loc.Lon}
	h := key.hash()
	e := find(*t.slots.Load(), key, h)
	if e == nil {
		e = t.insert(key, h)
	}
	s := &e.s
	s.once.Do(func() {
		scratch := rankScratch.Get().(*[]float64)
		w.buildSession(s, vp, scratch)
		rankScratch.Put(scratch)
	})
	return s
}

// rankMargin is how far apart, in cosine of the central angle, a session
// build needs the dot-product keys of a rank group's four nearest places
// before it trusts their order without a haversine. A cosine gap above it
// is a true distance gap above EarthRadiusKm*rankMargin = 6.4 m (the
// cosine is 1-Lipschitz in the angle), and each computed haversine is
// within 0.3 m of its true distance, so the two haversines order strictly
// the same way, with 10x headroom (TestRankMarginBound measures both
// errors; docs/bench-history/vp-costs.md has the derivation).
const rankMargin = 1e-6

// buildSession ranks every deployment's replicas by distance from the
// vantage point. Everything that does not depend on the vantage point is
// read from the world's flat replica geometry (World.places, placeVecs,
// rankGroups), so a build is one dot product per distinct replica place,
// then one nearest-places cascade per rank group on the negated dot
// product, which orders places as the great-circle distance does. A group
// whose four nearest keys are not rankMargin apart - a near tie, where
// rounding could order the two differently - reruns the haversine cascade
// servingReplicaSlow runs (rankByDistance), so the ranking is bit-identical
// to it either way. It draws nothing per deployment: the RTT base toward
// the replica that answers is built by the probe that reads it
// (servedBaseMs). It allocates once, the ranking - the keys and the
// remembered haversines live in the caller's scratch, grown to fit - and
// returns how many haversines it computed.
func (w *World) buildSession(s *vpSession, vp platform.VP, scratch *[]float64) (haversines int) {
	s.st = w.vpState(vp)
	s.pt = geo.Prepare(vp.Loc)
	s.vpAccess = w.vpAccessMs(s.st)
	s.ranked = make([][3]int16, len(w.rankGroups))

	n := len(w.places)
	if cap(*scratch) < 2*n {
		*scratch = make([]float64, 2*n)
	}
	key, km := (*scratch)[:n], (*scratch)[n:2*n]
	clear(km)
	u := geo.UnitVec(vp.Loc)
	for i, v := range w.placeVecs {
		key[i] = -geo.VecDot(u, v)
	}

	for gi := range w.rankGroups {
		slots := w.rankGroups[gi].slots
		// servingReplicaSlow's strict-< cascade one rank deeper: k3 is the
		// best key left out, the one the third must clear. k0 <= ... <= k3
		// throughout, so a key that is not below k3 matches no case: most
		// of a long list leaves after one compare.
		i0, i1, i2, i3 := -1, -1, -1, -1
		k0, k1, k2, k3 := math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64
		for i, slot := range slots {
			k := key[slot]
			if !(k < k3) {
				continue
			}
			switch {
			case k < k0:
				i3, i2, i1, i0 = i2, i1, i0, i
				k3, k2, k1, k0 = k2, k1, k0, k
			case k < k1:
				i3, i2, i1 = i2, i1, i
				k3, k2, k1 = k2, k1, k
			case k < k2:
				i3, i2 = i2, i
				k3, k2 = k2, k
			default:
				i3, k3 = i, k
			}
		}
		if (i1 < 0 || k1-k0 > rankMargin) && (i2 < 0 || k2-k1 > rankMargin) && (i3 < 0 || k3-k2 > rankMargin) {
			s.ranked[gi] = [3]int16{int16(i0), int16(i1), int16(i2)}
			continue
		}
		var h int
		s.ranked[gi], h = rankByDistance(s.pt, w.places, slots, km)
		haversines += h
	}
	return haversines
}

// rankScratch recycles the sessions' build scratch: a key and a
// remembered haversine per place, read only during the build.
var rankScratch = sync.Pool{New: func() any { return new([]float64) }}

// rankByDistance is the three-nearest cascade servingReplicaSlow runs -
// strict <, over the same PointDistanceKm outputs in the same Replicas
// order - over the places of one rank group. km remembers a place's
// distance across groups as its negation, so that the zero a build starts
// from (sign bit clear) reads as not yet computed; it returns the ranking
// and how many haversines it computed.
func rankByDistance(from geo.Point, places []geo.Point, slots []int32, km []float64) (ranked [3]int16, haversines int) {
	i0, i1, i2 := -1, -1, -1
	d0, d1, d2 := math.MaxFloat64, math.MaxFloat64, math.MaxFloat64
	for i, slot := range slots {
		if !math.Signbit(km[slot]) {
			km[slot] = -geo.PointDistanceKm(from, places[slot])
			haversines++
		}
		d := -km[slot]
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
	return [3]int16{int16(i0), int16(i1), int16(i2)}, haversines
}

// rankBaseMs is the RTT base from the session's vantage point toward the
// rank-th nearest replica of the deployment recorded as dg, idx being its
// rank group's ranking: pathRTT's base with the endpoint half read from
// the world's geometry - one haversine and one path stretch.
func (w *World) rankBaseMs(s *vpSession, dg *deploymentGeom, idx *[3]int16, rank int) float64 {
	slot := w.rankGroups[dg.group].slots[idx[rank]]
	return w.rttBaseMsDist(s.st, dg.prefix, geo.PointDistanceKm(s.pt, w.places[slot]), uint64(slot-dg.placeBase), s.vpAccess, w.endAccess[dg.access+int32(idx[rank])])
}

// servedBaseMs is the RTT base toward the candidate that answers
// deployment di in the given round: servingRank's pick, then one
// haversine and one path stretch (rankBaseMs). A (VP, span) unit probes
// each target once, so a base stored ahead of the probe would be read at
// most once: SpanSession.ICMP and an ad-hoc probe build it on the spot,
// one per answered anycast probe, and none for a probe lost or skipped.
func (w *World) servedBaseMs(s *vpSession, di int32, round uint64) float64 {
	dg := &w.geom[di]
	idx := &s.ranked[dg.group]
	return w.rankBaseMs(s, dg, idx, servingRank(idx, s.st.With(dg.prefix), round))
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

// stableRank is the rank of the candidate in idx that answers while the
// catchment does not flap: the stable base-selection draw (0xB69), or 0
// for a single-replica list. pair is the vantage point's vpState extended
// by the deployment's uint64(Prefix).
func stableRank(idx *[3]int16, pair detrand.State) int {
	if idx[1] < 0 {
		return 0
	}
	return selectRank(pair.With(0xB69).Unit(), idx[2] >= 0)
}

// servingRank picks which ranked candidate in idx answers this round. It
// mirrors the selection of servingReplicaSlow exactly; only the ranking
// comes from the cache. pair is as for stableRank.
func servingRank(idx *[3]int16, pair detrand.State, round uint64) int {
	if idx[1] < 0 {
		return 0 // single-replica deployment: no draws, like the slow path
	}
	if flap := pair.With(round); flap.With(0xF1A9).Unit() < 0.12 {
		// Catchment flap: this round routes to a different candidate.
		return selectRank(flap.With(0xB6A).Unit(), idx[2] >= 0)
	}
	return stableRank(idx, pair)
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
// per span and hands it to all of the span's units, so the slot lookup,
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
// world costs: each target's /24 is found by its slot in the world's
// index, O(1) whatever the targets' order or gaps, so a dense census span,
// a sparse sample and a list in no order all pay one array read per
// target. On a world without a session table the plan holds no slabs and
// every session over it takes the reference path: the resolver is part of
// the cache and must vanish with it.
func (w *World) PlanSpan(targets []IP) *SpanPlan {
	pl := &SpanPlan{targets: targets}
	if w.sessions == nil {
		return pl
	}
	pl.cls = make([]uint8, len(targets))
	pl.pts = make([]geo.Point, len(targets))
	pl.payload = make([]uint64, len(targets))
	hijacksLive := len(w.hijacks) > 0
	for i, target := range targets {
		p := target.Prefix()
		di, ok := w.lookup(p)
		if !ok {
			pl.cls[i] = spanTimeout
			continue
		}
		if di < 0 {
			h := &w.unicast[-(di + 1)]
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
// shared plan plus one flat slab, the RTT base toward each unicast host,
// borrowed from a pool of slabs until Release. The per-probe path then
// touches only the slabs and the per-round draws: no map lookups, no
// allocation, and a working set of ~45 bytes per span target instead of
// the whole world's prefix index. That keeps the probe rate flat from
// 20k-target test runs to full 6.6M-target censuses, where the global
// per-probe map walk used to cost a DRAM miss per probe.
type SpanSession struct {
	w    *World
	vp   platform.VP
	s    *vpSession
	plan *SpanPlan
	base []float64  // hostBaseMs per unicast-answering target; no other cell is read
	slab *[]float64 // base's pooled storage, nil once released
}

// baseSlabs recycles SpanSession.base slabs: a (VP, span) unit is
// short-lived, and a worker probes unit after unit, so a released slab is
// the next unit's.
var baseSlabs = sync.Pool{New: func() any { return new([]float64) }}

// ProbeSpanSession is PlanSpan and PlannedSession in one: a session over
// a plan nobody else reads.
func (w *World) ProbeSpanSession(vp platform.VP, targets []IP) SpanSession {
	return w.PlannedSession(vp, w.PlanSpan(targets))
}

// PlannedSession binds the vantage point to a span plan: per unicast host
// one haversine and one path stretch (hostBaseMs), in target order, into
// a pooled slab. The sequential pass is also what brings the plan's slabs
// into cache for the probe loop's permuted reads: a plan is shared by
// every vantage point of a round, so it is seldom still cached from the
// previous unit over its span. After Release the slab is the next
// session's, so a unit allocates nothing once its vantage point's session
// is built. The plan may come from any WithFaults view of the world; it is
// only read. Replies through the session are bit-identical to ProbeICMP's
// - the determinism tests compare the two - because every planned and
// cached value is the output of the exact expression the reference path
// evaluates.
func (w *World) PlannedSession(vp platform.VP, plan *SpanPlan) SpanSession {
	s := w.session(vp)
	ss := SpanSession{w: w, vp: vp, s: s, plan: plan}
	if s == nil || plan.cls == nil {
		return ss // no session table: every probe takes the reference path
	}
	ss.slab = baseSlabs.Get().(*[]float64)
	if cap(*ss.slab) < len(plan.cls) {
		*ss.slab = make([]float64, len(plan.cls))
	}
	ss.base = (*ss.slab)[:len(plan.cls)]
	for i, c := range plan.cls {
		if c >= spanUniEcho && c <= spanUniNet {
			ss.base[i] = w.hostBaseMs(s, plan.targets[i].Prefix(), plan.pts[i], math.Float64frombits(plan.payload[i]))
		}
	}
	return ss
}

// Release hands the session's slab back for the next session to reuse.
// The session must not be probed afterwards; a session never released
// leaves its slab to the garbage collector.
func (ss *SpanSession) Release() {
	if ss.slab != nil {
		baseSlabs.Put(ss.slab)
		ss.slab, ss.base = nil, nil
	}
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
	if ss.s == nil || pl.cls == nil {
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
		return Reply{Kind: ReplyEcho, RTT: w.rttFromBaseMs(w.servedBaseMs(ss.s, int32(pl.payload[i]), round), ss.vp.LoadFactor, probe)}
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
