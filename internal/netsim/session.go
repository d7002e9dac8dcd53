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
// sends millions of probes, but much of what a probe computes is a stable
// property of its vantage point: the per-VP access constant (0xB71), the
// vantage point's prepared location (geo.Point: every distance a probe
// computes starts there), its unit vector (every replica ranking is a dot
// product with it) and the hash state of the (seed, vp) prefix that every
// per-probe draw begins with (detrand.State). The session caches those
// four per vantage point, 80 bytes whatever the world holds, and leaves
// everything per target to the probe.
// Per-target state is NOT cached per vantage point: at the paper's 10.6M
// /24s and ~300 VPs that would be tens of gigabytes, and even one ranking
// per replica list would be most of a session. A unicast host's RTT base
// lives per (VP, span) work unit, over a span plan every vantage point
// shares (see PlanSpan and PlannedSession); an anycast probe ranks its
// own deployment's replicas, only as deep as the rank that answers it
// reads, and builds the RTT base toward that one (servedBaseMs).
//
// Determinism is the contract: every cached value is the output of the
// exact detrand/geo expression the model defines, so replies are
// byte-identical to the model's reference written out without any cache
// (reference_test.go; TestSessionCacheBitIdentical and the span tests hold
// every probe path to it). That works because detrand draws are pure
// functions of their key tuple - skipping or reordering draws cannot
// influence other draws - and because the cached float expressions are
// reassociated only along bitwise-exact lines.

// sessionKey identifies a vantage point. The ID alone is not enough:
// PlanetLab and RIPE Atlas assign overlapping ID ranges, so the location
// disambiguates. LoadFactor is deliberately absent - nothing cached here
// depends on it (jitter, the only load-dependent term, stays live).
type sessionKey struct {
	id       int
	lat, lon float64
}

// vpSession holds everything about one vantage point that a probe reads in
// every round and that no target span changes: its prepared location, its
// unit vector, the hash prefix of its draws and its access term. It holds
// nothing per rank group, per deployment or per unicast /24: which replica
// answers an anycast probe is ranked by the probe (rank), so a session is
// the same 80 bytes at any world size.
type vpSession struct {
	once     sync.Once
	vpAccess float64       // hoisted per-VP access term (0xB71)
	pt       geo.Point     // the vantage point's location, prepared
	u        [3]float64    // geo.UnitVec of the location, which rank dots with every place
	st       detrand.State // detrand.Begin(seed, vp.ID): the prefix of every per-VP draw
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
// first use. Every probe reads its vantage point through one.
func (w *World) session(vp platform.VP) *vpSession {
	t := w.sessions
	key := sessionKey{id: vp.ID, lat: vp.Loc.Lat, lon: vp.Loc.Lon}
	h := key.hash()
	e := find(*t.slots.Load(), key, h)
	if e == nil {
		e = t.insert(key, h)
	}
	s := &e.s
	s.once.Do(func() { w.buildSession(s, vp) })
	return s
}

// buildSession fills the session with what every probe from the vantage
// point reads. It ranks nothing and allocates nothing: a probe ranks the
// replicas of the deployment it reaches (rank).
func (w *World) buildSession(s *vpSession, vp platform.VP) {
	s.st = detrand.Begin(w.cfg.Seed, uint64(vp.ID))
	s.pt = geo.Prepare(vp.Loc)
	s.u = geo.UnitVec(vp.Loc)
	s.vpAccess = w.vpAccessMs(s.st)
}

// rankMargin is how far apart, in cosine of the central angle, rank needs
// the dot-product keys of the places it orders before it trusts their
// order without a haversine. A cosine gap above it is a true distance gap
// above EarthRadiusKm*rankMargin = 6.4 m (the cosine is 1-Lipschitz in the
// angle), and each computed haversine is within 0.3 m of its true
// distance, so the two haversines order strictly the same way, with 10x
// headroom (TestRankMarginBound measures both errors;
// docs/bench-history/vp-costs.md has the derivation).
const rankMargin = 1e-6

// nearest is the model's strict-< nearest-places cascade: the smallest
// keys seen so far, ascending, with their list indexes, a tie keeping the
// earlier index ahead, kept as deep as one rank needs.
type nearest struct {
	key [4]float64
	idx [4]int
}

// newNearest returns an empty cascade, every key at math.MaxFloat64.
func newNearest() nearest {
	return nearest{key: [4]float64{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}}
}

// insert places key, of list index i, into the cascade's first last+1
// entries, the caller having checked that it is below the last of them:
// what it passes moves one rank down and the last falls out.
func (c *nearest) insert(key float64, i, last int) {
	j := last
	for ; j > 0 && key < c.key[j-1]; j-- {
		c.key[j], c.idx[j] = c.key[j-1], c.idx[j-1]
	}
	c.key[j], c.idx[j] = key, i
}

// rank returns the index, into its replica list, of the replica of rank
// group g that the model's three-nearest cascade - strict <, over the
// great-circle distances in Replicas order (servingReplica) - puts r-th
// nearest the session's vantage point, r < min(3, list length). It reads
// only the world's flat replica geometry (places, placeVecs, rankGroups):
// one dot product per place of the group, in a cascade r+2 deep on the
// negated dot product, which orders places as the great-circle distance
// does. The place the cascade puts r-th is the model's when its key is
// rankMargin clear of the key just below it, so every nearer place is
// nearer by distance too, and of the one just above, the nearest left
// out, so no farther place is. Otherwise - a near tie, where rounding
// could order the two differently - the haversine cascade decides
// (rankByDistance), reported as byDistance. Either way the answer is
// bit-identical to the model's, and nothing is allocated.
func (w *World) rank(s *vpSession, g int32, r int) (i int, byDistance bool) {
	slots := w.rankGroups[g].slots
	c, last := newNearest(), r+1
	worst, vecs := c.key[last], w.placeVecs
	// geo.VecDot(s.u, v), written out on registers: the inlined call
	// copies both arrays through the stack at every place.
	u0, u1, u2 := s.u[0], s.u[1], s.u[2]
	for i, slot := range slots {
		v := &vecs[slot]
		// Most of a long list leaves after this one compare.
		if k := -(u0*v[0] + u1*v[1] + u2*v[2]); k < worst {
			c.insert(k, i, last)
			worst = c.key[last]
		}
	}
	if c.key[r+1]-c.key[r] > rankMargin && (r == 0 || c.key[r]-c.key[r-1] > rankMargin) {
		return c.idx[r], false
	}
	return rankByDistance(s.pt, w.places, slots, r), true
}

// rankByDistance is the model's three-nearest cascade over the haversine
// distances from the vantage point to the places of one rank group, kept
// r+1 deep: it returns the index of the r-th nearest.
func rankByDistance(from geo.Point, places []geo.Point, slots []int32, r int) int {
	c := newNearest()
	for i, slot := range slots {
		if d := geo.PointDistanceKm(from, places[slot]); d < c.key[r] {
			c.insert(d, i, r)
		}
	}
	return c.idx[r]
}

// servingIndex is the index, into the replica list of the deployment
// recorded as dg, of the replica that answers the session's vantage point
// in the given round (servingReplica): servingRank's draw, which reads
// only the list's length, then the replica of that rank (rank).
func (w *World) servingIndex(s *vpSession, dg *deploymentGeom, round uint64) int {
	i, _ := w.rank(s, dg.group, servingRank(len(w.rankGroups[dg.group].slots), s.st.With(dg.prefix), round))
	return i
}

// servedBaseMs is the RTT base toward the replica that answers deployment
// di in the given round (servingIndex): one haversine and one path
// stretch, rttBaseMsDist with the endpoint half read from the world's
// geometry. A (VP, span) unit probes each target once, so a base stored
// ahead of the probe would be read at most once: SpanSession.ICMP and the
// TCP and DNS probes build it on the spot, one per answered anycast
// probe, and none for a probe lost or skipped.
func (w *World) servedBaseMs(s *vpSession, di int32, round uint64) float64 {
	dg := &w.geom[di]
	i := w.servingIndex(s, dg, round)
	slot := w.rankGroups[dg.group].slots[i]
	return w.rttBaseMsDist(s.st, dg.prefix, geo.PointDistanceKm(s.pt, w.places[slot]), uint64(slot-dg.placeBase), s.vpAccess, w.endAccess[dg.access+int32(i)])
}

// selectRank maps a base-selection draw to the rank of the candidate that
// answers: 70% the nearest, 20% the second, 10% the third. The caller has
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

// stableRank is the rank of the candidate that answers, out of a list of
// n replicas, while the catchment does not flap: the stable
// base-selection draw (0xB69), or 0 for a single-replica list. pair is
// the session's st extended by the deployment's uint64(Prefix).
func stableRank(n int, pair detrand.State) int {
	if n < 2 {
		return 0
	}
	return selectRank(pair.With(0xB69).Unit(), n > 2)
}

// servingRank picks which rank of a list of n replicas answers this
// round: the selection servingReplica describes. It reads the list's
// length and no distance, so a probe draws it before ranking anything.
// pair is as for stableRank.
func servingRank(n int, pair detrand.State, round uint64) int {
	if n < 2 {
		return 0 // single-replica deployment: no draws
	}
	if flap := pair.With(round); flap.With(0xF1A9).Unit() < 0.12 {
		// Catchment flap: this round routes to a different candidate.
		return selectRank(flap.With(0xB6A).Unit(), n > 2)
	}
	return stableRank(n, pair)
}

// hostBaseMs is the RTT base from the session's vantage point toward the
// endpoint of p at pt - its unicast host, a hijacker, a traceroute's
// endpoint - endAccess being its endpointAccessMs(p, 0).
func (w *World) hostBaseMs(s *vpSession, p Prefix24, pt geo.Point, endAccess float64) float64 {
	return w.rttBaseMsDist(s.st, uint64(p), geo.PointDistanceKm(s.pt, pt), 0, s.vpAccess, endAccess)
}

// Target classes. Everything an ICMP reply depends on that is NOT a
// per-round draw is a stable property of the (VP, target) pair, and most
// of it - which host answers, with which reply kind, from where - is a
// property of the target alone, so classify decides it once per target
// and leaves only the fault check, the loss draw and the RTT jitter to
// the probe. A unicast class is the reply kind its host answers with.
const (
	// spanTimeout marks targets that time out structurally in every
	// round: unallocated prefixes, dead anycast host addresses, unicast
	// non-representatives and silent hosts. No per-round draw is made
	// for them.
	spanTimeout = uint8(ReplyTimeout)
	// spanUniEcho..spanUniNet are unicast representatives that answer
	// with the corresponding reply kind.
	spanUniEcho  = uint8(ReplyEcho)
	spanUniAdmin = uint8(ReplyAdminFiltered)
	spanUniHost  = uint8(ReplyHostProhibited)
	spanUniNet   = uint8(ReplyNetProhibited)
	// spanAnycast targets answer from a deployment.
	spanAnycast = spanUniNet + 1
)

// classify is the one resolution of a probe target: its class and its
// slots entry - the deployments index for spanAnycast, -(unicast index+1)
// for a unicast class. Every probe finds its target through it: a span
// plan for each of its targets (an ad hoc ICMP probe is a span of one),
// the TCP and DNS probes and a traceroute.
func (w *World) classify(target IP) (cls uint8, i int32) {
	i, ok := w.lookup(target.Prefix())
	if !ok {
		return spanTimeout, 0
	}
	if i >= 0 {
		d := w.deployments[i]
		if target != d.rep && detrand.UnitFloat(w.cfg.Seed, uint64(target), 0xA11E) >= d.Density {
			return spanTimeout, i
		}
		return spanAnycast, i
	}
	h := &w.unicast[-(i + 1)]
	if target != h.rep {
		// Only the representative host of a unicast /24 is modelled.
		return spanTimeout, i
	}
	switch h.class {
	case classSilent:
		return spanTimeout, i
	case classAdminFiltered:
		return spanUniAdmin, i
	case classHostProhibited:
		return spanUniHost, i
	case classNetProhibited:
		return spanUniNet, i
	}
	return spanUniEcho, i
}

// SpanPlan is the vantage-point-independent half of resolving a target
// span: three flat, pointer-free slabs - a class byte, a prepared host
// point and a 64-bit payload per target, ~33 bytes - that every vantage
// point probing the span reads and none writes. A census round builds one
// per span and hands it to all of the span's units, so the slot lookup,
// the host records, the anycast lookup with its density draw and the
// endpoint access draw are paid once per target instead of once per
// (VP, target). Hijacks are read when the plan is built, which
// InjectHijack's "before probing starts" contract allows: hijacked lists
// the unicast targets a live hijack covers, whose RTT base depends on the
// vantage point's catchment draw (PlannedSession).
type SpanPlan struct {
	targets  []IP
	cls      []uint8
	pts      []geo.Point
	payload  []uint64
	hijacked []int32
}

// PlanSpan resolves the vantage-point-independent half of a span covering
// exactly the given targets (callers working in [lo, hi) units pass
// targets[lo:hi]). Resolution costs what the span costs, not what the
// world costs: each target's /24 is found by its slot in the world's
// index, O(1) whatever the targets' order or gaps, so a dense census span,
// a sparse sample and a list in no order all pay one array read per
// target.
func (w *World) PlanSpan(targets []IP) *SpanPlan {
	pl := &SpanPlan{
		targets: targets,
		cls:     make([]uint8, len(targets)),
		pts:     make([]geo.Point, len(targets)),
		payload: make([]uint64, len(targets)),
	}
	pl.hijacked = w.plan(pl)
	return pl
}

// PlanKinds is PlanSpan for a KindSession alone: it resolves each
// target's class and nothing a reply's RTT reads - no host point, no
// access draw, no hijack - so it costs a byte per target. A session bound
// to it by PlannedSession would have no base to build; that panics.
func (w *World) PlanKinds(targets []IP) *SpanPlan {
	pl := &SpanPlan{targets: targets, cls: make([]uint8, len(targets))}
	for i, target := range targets {
		pl.cls[i], _ = w.classify(target)
	}
	return pl
}

// plan fills pl's slabs, sized to its targets: per target its class, and
// its payload - the deployments index of an anycast target; a unicast
// host's endpointAccessMs as math.Float64bits, beside its prepared point.
// It returns pl.hijacked with the hijacked targets appended; returning it
// rather than storing it keeps an ad hoc probe's stack plan on the stack.
func (w *World) plan(pl *SpanPlan) (hijacked []int32) {
	hijacked = pl.hijacked
	hijacksLive := len(w.hijacks) > 0
	for i, target := range pl.targets {
		cls, di := w.classify(target)
		pl.cls[i] = cls
		switch cls {
		case spanTimeout:
		case spanAnycast:
			pl.payload[i] = uint64(di)
		default:
			h := w.site(&w.unicast[-(di + 1)])
			p := target.Prefix()
			pl.pts[i] = geo.PrepareCos(h.loc, h.cosLat)
			pl.payload[i] = math.Float64bits(w.endpointAccessMs(uint64(p), 0))
			if hijacksLive && w.isHijacked(p) {
				hijacked = append(hijacked, int32(i))
			}
		}
	}
	return hijacked
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
	s    *vpSession
	vpID int     // the vantage point's ID, which a hijack's catchment draw reads
	load float64 // the vantage point's LoadFactor, which scales its jitter
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
// only read.
func (w *World) PlannedSession(vp platform.VP, plan *SpanPlan) SpanSession {
	if len(plan.pts) != len(plan.cls) {
		panic("netsim: PlannedSession over a PlanKinds plan, which holds no RTT base")
	}
	ss := SpanSession{w: w, s: w.session(vp), vpID: vp.ID, load: vp.LoadFactor, plan: plan, slab: baseSlabs.Get().(*[]float64)}
	if cap(*ss.slab) < len(plan.cls) {
		*ss.slab = make([]float64, len(plan.cls))
	}
	ss.base = (*ss.slab)[:len(plan.cls)]
	ss.bind()
	return ss
}

// KindSession binds the vantage point to a span plan, from PlanSpan or
// PlanKinds, for Kind alone: it builds no RTT base and borrows no slab, so
// its ICMP must not be asked. Release is a no-op on it.
func (w *World) KindSession(vp platform.VP, plan *SpanPlan) SpanSession {
	return SpanSession{w: w, s: w.session(vp), vpID: vp.ID, load: vp.LoadFactor, plan: plan}
}

// bind builds the session's RTT base toward each unicast host of its
// plan. Toward a hijacked /24 the base is the hijacker's when the vantage
// point falls in the hijack's catchment, the host's otherwise.
func (ss *SpanSession) bind() {
	w, s, pl := ss.w, ss.s, ss.plan
	for i, c := range pl.cls {
		if c >= spanUniEcho && c <= spanUniNet {
			ss.base[i] = w.hostBaseMs(s, pl.targets[i].Prefix(), pl.pts[i], math.Float64frombits(pl.payload[i]))
		}
	}
	for _, i := range pl.hijacked {
		p := pl.targets[i].Prefix()
		if loc, ok := w.hijacker(ss.vpID, p); ok {
			ss.base[i] = w.hostBaseMs(s, p, geo.Prepare(loc), math.Float64frombits(pl.payload[i]))
		}
	}
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

// ICMP probes the i-th span target in the given round: the one ICMP reply
// of the model, which ad hoc probes reach as a span of one (ProbeICMP).
func (ss *SpanSession) ICMP(i int, round uint64) Reply { return ss.reply(i, round, true) }

// Kind is the kind of ICMP's reply to the i-th span target in the given
// round, without its RTT: no ranking, no base and no jitter. A run that
// records no sample - the blacklist census reads only error kinds - asks
// it of a KindSession.
func (ss *SpanSession) Kind(i int, round uint64) ReplyKind { return ss.reply(i, round, false).Kind }

// reply is ICMP, with the RTT only when rtt is set. It reads the target's
// class and, for the RTT, one slab cell, and pays only the per-round
// draws. Whether a reply arrives is one decision, the same with or
// without the RTT: the class (a structural timeout makes no draw), then
// the target outage, then the transient-loss draw, mixed from the
// probe's (target, round) state on top of the session's hoisted
// (seed, vp) prefix. The RTT adds the catchment flap (anycast) and the
// queueing jitter, from the same state.
func (ss *SpanSession) reply(i int, round uint64, rtt bool) Reply {
	pl := ss.plan
	cls := pl.cls[i]
	if cls == spanTimeout {
		return Reply{Kind: ReplyTimeout}
	}
	w := ss.w
	target := pl.targets[i]
	if w.faults.TargetUnreachable(target.Prefix(), round) {
		return Reply{Kind: ReplyTimeout}
	}
	// Transient loss: a few percent of probes get no answer in any given
	// census round; repeating the census recovers them (one reason the
	// combination of censuses has higher recall, Sec. 4.1).
	probe := probeState(ss.s.st, target, round)
	if lost(probe) {
		return Reply{Kind: ReplyTimeout}
	}
	kind := ReplyKind(cls) // a unicast class is its host's reply kind
	if cls == spanAnycast {
		kind = ReplyEcho
	}
	if !rtt {
		return Reply{Kind: kind}
	}
	var base float64
	if cls == spanAnycast {
		base = w.servedBaseMs(ss.s, int32(pl.payload[i]), round)
	} else {
		base = ss.base[i]
	}
	return Reply{Kind: kind, RTT: w.rttFromBaseMs(base, ss.load, probe)}
}
