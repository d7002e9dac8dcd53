package netsim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"anycastmap/internal/detrand"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// ReplyKind classifies what comes back from a probe.
type ReplyKind uint8

const (
	// ReplyTimeout means nothing came back.
	ReplyTimeout ReplyKind = iota
	// ReplyEcho is an ICMP echo reply (or, for transport probes, a
	// successful handshake).
	ReplyEcho
	// ReplyAdminFiltered is ICMP type 3 code 13 (communication
	// administratively filtered, RFC 1812) - the bulk of the greylist.
	ReplyAdminFiltered
	// ReplyHostProhibited is ICMP type 3 code 10 (RFC 1122).
	ReplyHostProhibited
	// ReplyNetProhibited is ICMP type 3 code 9 (RFC 1122).
	ReplyNetProhibited
)

func (k ReplyKind) String() string {
	switch k {
	case ReplyTimeout:
		return "timeout"
	case ReplyEcho:
		return "echo"
	case ReplyAdminFiltered:
		return "admin-filtered(13)"
	case ReplyHostProhibited:
		return "host-prohibited(10)"
	case ReplyNetProhibited:
		return "net-prohibited(9)"
	}
	return "unknown"
}

// Greylistable reports whether the reply asks to be excluded from future
// probing (the greylist mechanism of Sec. 3.3).
func (k ReplyKind) Greylistable() bool {
	switch k {
	case ReplyAdminFiltered, ReplyHostProhibited, ReplyNetProhibited:
		return true
	}
	return false
}

// Reply is the observable outcome of one probe.
type Reply struct {
	Kind ReplyKind
	RTT  time.Duration // meaningful only when Kind != ReplyTimeout
}

// OK reports whether the probe elicited a latency sample usable for
// anycast detection.
func (r Reply) OK() bool { return r.Kind == ReplyEcho }

// ProbeICMP sends one ICMP echo request from vp to target during census
// round `round`. Rounds matter: the per-probe queueing jitter differs
// between rounds, so combining censuses by minimum RTT sharpens the
// estimate toward the propagation delay (Sec. 4.1).
func (w *World) ProbeICMP(vp platform.VP, target IP, round uint64) Reply {
	return w.probeICMP(w.session(vp), vp, target, round)
}

func (w *World) probeICMP(s *vpSession, vp platform.VP, target IP, round uint64) Reply {
	p := target.Prefix()
	i, ok := w.lookup(p)
	if !ok {
		return Reply{Kind: ReplyTimeout}
	}
	if w.faults.TargetUnreachable(p, round) {
		return Reply{Kind: ReplyTimeout}
	}
	if i >= 0 {
		// Structural checks first: a dead host times out whatever the
		// loss draw would have said, so it never pays for one.
		d := w.deployments[i]
		if target != d.rep && detrand.UnitFloat(w.cfg.Seed, uint64(target), 0xA11E) >= d.Density {
			return Reply{Kind: ReplyTimeout}
		}
		// Transient loss: a few percent of probes get no answer in any
		// given census round; repeating the census recovers them (one
		// reason the combination of censuses has higher recall, Sec. 4.1).
		if lost(probeState(w.stateOf(s, vp), target, round)) {
			return Reply{Kind: ReplyTimeout}
		}
		return Reply{Kind: ReplyEcho, RTT: w.anycastRTT(s, vp, d, target, round)}
	}
	h := &w.unicast[-(i + 1)]
	if target != h.rep {
		// Only the representative host of a unicast /24 is modelled.
		return Reply{Kind: ReplyTimeout}
	}
	if h.class == classSilent {
		return Reply{Kind: ReplyTimeout}
	}
	if lost(probeState(w.stateOf(s, vp), target, round)) {
		return Reply{Kind: ReplyTimeout}
	}
	rtt := w.unicastRTT(s, vp, h, target, round)
	switch h.class {
	case classAdminFiltered:
		return Reply{Kind: ReplyAdminFiltered, RTT: rtt}
	case classHostProhibited:
		return Reply{Kind: ReplyHostProhibited, RTT: rtt}
	case classNetProhibited:
		return Reply{Kind: ReplyNetProhibited, RTT: rtt}
	}
	return Reply{Kind: ReplyEcho, RTT: rtt}
}

// anycastRTT produces the RTT of a successful anycast probe: the cached
// ranking, with the serving candidate's base built on the spot, when a
// session is bound; the full computation otherwise.
func (w *World) anycastRTT(s *vpSession, vp platform.VP, d *Deployment, target IP, round uint64) time.Duration {
	if s != nil {
		return w.rttFromBaseMs(w.servedBaseMs(s, d.idx, round), vp.LoadFactor, probeState(s.st, target, round))
	}
	r := w.servingReplicaSlow(vp, d, round)
	return w.pathRTT(vp, uint64(d.Prefix), r.Loc, uint64(r.ID), target, round)
}

// unicastRTT produces the RTT toward a unicast representative. Hijacked
// prefixes bypass the cache: their effective endpoint depends on a live
// per-VP catchment draw (0x41AC), and hijacks are injected after sessions
// may already be warm.
func (w *World) unicastRTT(s *vpSession, vp platform.VP, h *unicastHost, target IP, round uint64) time.Duration {
	p := target.Prefix()
	if s == nil {
		return w.pathRTT(vp, uint64(p), w.hijackedLoc(vp, p, h.loc), 0, target, round)
	}
	if len(w.hijacks) > 0 && w.isHijacked(p) {
		return w.pathRTT(vp, uint64(p), w.hijackedLoc(vp, p, h.loc), 0, target, round)
	}
	return w.rttFromBaseMs(w.unicastBaseMs(s, h, p), vp.LoadFactor, probeState(s.st, target, round))
}

// ProbeTCP attempts a TCP SYN/SYN-ACK handshake to the given port
// (Sec. 3.4: L4 measurements only succeed when the service is known a
// priori; Sec. 4.3: the portscan campaign).
func (w *World) ProbeTCP(vp platform.VP, target IP, port uint16, round uint64) Reply {
	return w.probeTCP(w.session(vp), vp, target, port, round)
}

func (w *World) probeTCP(s *vpSession, vp platform.VP, target IP, port uint16, round uint64) Reply {
	i, ok := w.lookup(target.Prefix())
	if !ok {
		return Reply{Kind: ReplyTimeout}
	}
	if w.faults.TargetUnreachable(target.Prefix(), round) {
		return Reply{Kind: ReplyTimeout}
	}
	if i >= 0 {
		d := w.deployments[i]
		if target != d.rep && detrand.UnitFloat(w.cfg.Seed, uint64(target), 0xA11E) >= d.Density {
			return Reply{Kind: ReplyTimeout}
		}
		set, has := w.Services.ByASN(d.ASN)
		if !has || !set.Open(port) {
			return Reply{Kind: ReplyTimeout}
		}
		// Conservative loss: some in-path firewall drops SYNs for a small
		// fraction of (vantage, port) pairs (Sec. 4.3 notes probe
		// filtering makes port counts an underestimate).
		if detrand.UnitFloat(w.cfg.Seed, uint64(vp.ID), uint64(target), uint64(port), 0xF11) < 0.02 {
			return Reply{Kind: ReplyTimeout}
		}
		return Reply{Kind: ReplyEcho, RTT: w.anycastRTT(s, vp, d, target, round)}
	}
	// Unicast hosts run the occasional service. TCP probes always reach
	// the host's home location: the injected hijacks model an ICMP-era
	// attack and never attract transport traffic, so the cached base is
	// valid here even while a hijack is live.
	h := &w.unicast[-(i + 1)]
	if target != h.rep || h.class != classResponsive {
		return Reply{Kind: ReplyTimeout}
	}
	var p float64
	switch port {
	case 80:
		p = 0.20
	case 443:
		p = 0.15
	case 22:
		p = 0.12
	case 53:
		p = 0.04
	default:
		p = 0.01
	}
	if detrand.UnitFloat(w.cfg.Seed, uint64(target), uint64(port), 0xF12) >= p {
		return Reply{Kind: ReplyTimeout}
	}
	if s != nil {
		return Reply{Kind: ReplyEcho, RTT: w.rttFromBaseMs(w.unicastBaseMs(s, h, target.Prefix()), vp.LoadFactor, probeState(s.st, target, round))}
	}
	return Reply{Kind: ReplyEcho, RTT: w.pathRTT(vp, uint64(target.Prefix()), h.loc, 0, target, round)}
}

// ProbeDNSUDP sends a DNS query over UDP (the dig test of Fig. 6): only
// deployments actually operating a UDP DNS service answer.
func (w *World) ProbeDNSUDP(vp platform.VP, target IP, round uint64) Reply {
	return w.probeDNSUDP(w.session(vp), vp, target, round)
}

func (w *World) probeDNSUDP(s *vpSession, vp platform.VP, target IP, round uint64) Reply {
	i, ok := w.lookup(target.Prefix())
	if !ok || i < 0 {
		return Reply{Kind: ReplyTimeout}
	}
	d := w.deployments[i]
	if target != d.rep && detrand.UnitFloat(w.cfg.Seed, uint64(target), 0xA11E) >= d.Density {
		return Reply{Kind: ReplyTimeout}
	}
	set, has := w.Services.ByASN(d.ASN)
	if !has || !set.ServesDNSOverUDP {
		return Reply{Kind: ReplyTimeout}
	}
	return Reply{Kind: ReplyEcho, RTT: w.anycastRTT(s, vp, d, target, round)}
}

// ProbeDNSTCP sends a DNS query over TCP: it needs both an open port 53 and
// a DNS service behind it.
func (w *World) ProbeDNSTCP(vp platform.VP, target IP, round uint64) Reply {
	i, ok := w.lookup(target.Prefix())
	if !ok || i < 0 {
		return Reply{Kind: ReplyTimeout}
	}
	d := w.deployments[i]
	set, has := w.Services.ByASN(d.ASN)
	if !has || !set.Open(53) || !set.ServesDNSOverUDP {
		return Reply{Kind: ReplyTimeout}
	}
	return w.ProbeTCP(vp, target, 53, round)
}

// ServingReplica exposes, as ground truth, which replica of an anycast
// prefix answers probes from the given vantage point during the given
// census round. The validation pipeline uses it as the equivalent of
// CloudFlare's CF-RAY HTTP header (Sec. 3.4); the measurement pipeline
// must not touch it.
func (w *World) ServingReplica(vp platform.VP, p Prefix24, round uint64) (Replica, bool) {
	d, ok := w.Deployment(p)
	if !ok {
		return Replica{}, false
	}
	return w.servingReplica(vp, d, round), true
}

// servingReplica implements BGP-like replica selection: mostly stable per
// (vantage, prefix), usually - but not always - the geographically nearest
// replica, because BGP picks paths by AS hops and policy, not distance.
// About 12% of (vantage, prefix) catchments flap between census rounds,
// the imperfect anycast affinity documented by the DNS literature the
// paper builds on.
func (w *World) servingReplica(vp platform.VP, d *Deployment, round uint64) Replica {
	if s := w.session(vp); s != nil {
		dg := &w.geom[d.idx]
		idx := &s.ranked[dg.group]
		return d.Replicas[idx[servingRank(idx, s.st.With(dg.prefix), round)]]
	}
	return w.servingReplicaSlow(vp, d, round)
}

// servingReplicaSlow is the uncached reference implementation; the session
// cache must reproduce its selections bit for bit.
func (w *World) servingReplicaSlow(vp platform.VP, d *Deployment, round uint64) Replica {
	n := len(d.Replicas)
	if n == 1 {
		return d.Replicas[0]
	}
	// Rank the three nearest replicas.
	type cand struct {
		idx  int
		dist float64
	}
	best := [3]cand{{-1, math.MaxFloat64}, {-1, math.MaxFloat64}, {-1, math.MaxFloat64}}
	for i := range d.Replicas {
		dist := geo.DistanceKm(vp.Loc, d.Replicas[i].Loc)
		switch {
		case dist < best[0].dist:
			best[2], best[1], best[0] = best[1], best[0], cand{i, dist}
		case dist < best[1].dist:
			best[2], best[1] = best[1], cand{i, dist}
		case dist < best[2].dist:
			best[2] = cand{i, dist}
		}
	}
	pair := w.vpState(vp).With(uint64(d.Prefix))
	u := pair.With(0xB69).Unit()
	if flap := pair.With(round); flap.With(0xF1A9).Unit() < 0.12 {
		// Catchment flap: this round routes to a different candidate.
		u = flap.With(0xB6A).Unit()
	}
	switch {
	case u < 0.70 || best[1].idx < 0:
		return d.Replicas[best[0].idx]
	case u < 0.90 || best[2].idx < 0:
		return d.Replicas[best[1].idx]
	default:
		return d.Replicas[best[2].idx]
	}
}

// pathRTT models the round-trip time between a vantage point and an
// endpoint at loc: fiber propagation along a stretched path, fixed access
// latency at both ends, and per-probe queueing jitter.
//
// The model maintains the physical invariant the detection technique relies
// on: RTT >= PropagationRTT(vp, loc), so a disk built from a measured RTT
// always contains the answering endpoint.
func (w *World) pathRTT(vp platform.VP, endpointKey uint64, loc geo.Coord, subKey uint64, target IP, round uint64) time.Duration {
	vpSt := w.vpState(vp)
	base := w.rttBaseMsDist(vpSt, endpointKey, geo.DistanceKm(vp.Loc, loc), subKey, w.vpAccessMs(vpSt), w.endpointAccessMs(endpointKey, subKey))
	return w.rttFromBaseMs(base, vp.LoadFactor, probeState(vpSt, target, round))
}

// vpState is the hash state of the (seed, vantage point) tuple prefix that
// every per-VP draw of the model begins with. A session computes it once
// (vpSession.st); the reference path computes it per call. Either way the
// draws below continue from it, so both paths mix the same tuples.
func (w *World) vpState(vp platform.VP) detrand.State {
	return detrand.Begin(w.cfg.Seed, uint64(vp.ID))
}

// stateOf is vpState from the session when one is bound.
func (w *World) stateOf(s *vpSession, vp platform.VP) detrand.State {
	if s != nil {
		return s.st
	}
	return w.vpState(vp)
}

// probeState mixes one probe's (target, round) into the vantage point's
// vpState: the state both per-probe draws - loss (0xC0FF) and queueing
// jitter (0xB73) - finish with their tag.
func probeState(vpSt detrand.State, target IP, round uint64) detrand.State {
	return vpSt.With(uint64(target)).With(round)
}

// lost is the transient-loss draw of one probe: a few percent of probes get
// no answer in any given census round.
func lost(probe detrand.State) bool {
	return probe.With(0xC0FF).Unit() < 0.025
}

// vpAccessMs is the vantage point's half of the access-latency term: last
// mile plus host overhead, stable across every probe the VP sends.
func (w *World) vpAccessMs(vpSt detrand.State) float64 {
	return 0.2 + w.cfg.AccessMs*vpSt.With(0xB71).Unit()
}

// endpointAccessMs is the endpoint's half of the access-latency term:
// server-side processing, a property of the endpoint alone - no vantage
// point enters the draw, so New tabulates it per replica (World.endAccess)
// and the reference path computes it per call.
func (w *World) endpointAccessMs(endpointKey, subKey uint64) float64 {
	return w.cfg.AccessMs * 0.5 * w.seedSt.With(endpointKey).With(subKey).With(0xB72).Unit()
}

// rttBaseMsDist is the probe-invariant part of the RTT model: propagation
// along the stretched path plus access latency at both ends. The float
// expressions are associated exactly as the pre-memoization code wrote
// them, so a cached base plus live jitter reproduces the original RTT bit
// for bit. vpSt is the vantage point's vpState, vpAccess its vpAccessMs
// and endAccess the endpoint's endpointAccessMs.
func (w *World) rttBaseMsDist(vpSt detrand.State, endpointKey uint64, distKm float64, subKey uint64, vpAccess, endAccess float64) float64 {
	propMs := 2 * distKm / geo.FiberSpeedKmPerMs

	// Path stretch is a stable property of the (vantage, endpoint) pair.
	stretch := w.cfg.StretchBase + w.cfg.StretchExtra*vpSt.With(endpointKey).With(subKey).With(0xB70).Exp()
	if stretch > 3.0 {
		stretch = 3.0
	}

	// Access latency: last mile at the VP plus server-side processing.
	accessMs := vpAccess + 0.1 + endAccess

	return propMs*stretch + accessMs
}

// rttFromBaseMs adds the only probe-varying term - queueing jitter - to a
// base latency. Jitter varies probe to probe (here: round to round), and
// grows with the host's load: an oversubscribed PlanetLab node adds
// milliseconds of scheduling delay, inflating its disks by hundreds of km.
// Minimum-combining across censuses claws part of this back, which is
// where the Fig. 12 recall gain of the combination comes from. probe is the
// probe's probeState.
func (w *World) rttFromBaseMs(baseMs, loadFactor float64, probe detrand.State) time.Duration {
	jitterMs := w.cfg.JitterMs * (0.3 + 1.2*loadFactor) * probe.With(0xB73).Exp()
	return time.Duration(math.Ceil((baseMs + jitterMs) * float64(time.Millisecond)))
}

// SourceDropProb returns the probability that a reply is lost near the
// vantage point when probing at the given rate (replies aggregate at the
// VP: Sec. 3.5 explains why Fastping had to be slowed down by an order of
// magnitude). Each VP's access network has its own tolerance.
func (w *World) SourceDropProb(vp platform.VP, probesPerSecond float64) float64 {
	// Per-VP rate tolerance between 1.5k and 12k probes/s.
	tol := 1500 + 10500*detrand.UnitFloat(w.cfg.Seed, uint64(vp.ID), 0xD20)
	if probesPerSecond <= tol {
		return 0
	}
	over := (probesPerSecond - tol) / tol
	p := 0.25 * over
	if p > 0.9 {
		p = 0.9
	}
	return p
}

// AnycastPrefixes returns the sorted list of anycast /24s (ground truth).
func (w *World) AnycastPrefixes() []Prefix24 {
	out := make([]Prefix24, len(w.deployments))
	for i, d := range w.deployments {
		out[i] = d.Prefix
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// BannerTCP performs an nmap-style service fingerprint of an open port:
// it returns the software banner when the service identifies itself, or
// "" with ok=true when the port is open but wrapped (nmap's "tcpwrapped").
// ok is false when the port did not answer at all.
func (w *World) BannerTCP(vp platform.VP, target IP, port uint16, round uint64) (software string, ok bool) {
	if !w.ProbeTCP(vp, target, port, round).OK() {
		return "", false
	}
	d, isAnycast := w.Deployment(target.Prefix())
	if !isAnycast {
		return "", true
	}
	set, has := w.Services.ByASN(d.ASN)
	if !has {
		return "", true
	}
	svc, open := set.Lookup(port)
	if !open {
		return "", true
	}
	return svc.Software, true
}

// ProbeTLS reports whether a TLS handshake succeeds on an open port (nmap's
// ssl service detection). It implies the port answered the TCP handshake.
func (w *World) ProbeTLS(vp platform.VP, target IP, port uint16, round uint64) bool {
	if !w.ProbeTCP(vp, target, port, round).OK() {
		return false
	}
	d, ok := w.Deployment(target.Prefix())
	if !ok {
		return false
	}
	set, has := w.Services.ByASN(d.ASN)
	if !has {
		return false
	}
	svc, open := set.Lookup(port)
	return open && svc.SSL
}

// InjectHijack simulates a BGP prefix hijack of a unicast /24 (the Sec. 5
// extension: geo-inconsistency on a knowingly unicast prefix is
// symptomatic of hijacking). A fraction of vantage points - the hijacker's
// BGP catchment - has its traffic attracted to the hijacker's location.
// Injection must happen before probing starts; it is not safe to call
// concurrently with probes.
func (w *World) InjectHijack(p Prefix24, hijackerLoc geo.Coord, catchment float64) error {
	i, ok := w.lookup(p)
	if !ok {
		return fmt.Errorf("netsim: prefix %v not allocated", p)
	}
	if i >= 0 {
		return fmt.Errorf("netsim: prefix %v is anycast; hijack detection targets unicast prefixes", p)
	}
	if catchment <= 0 || catchment > 1 {
		return fmt.Errorf("netsim: catchment %v outside (0, 1]", catchment)
	}
	w.hijacks[p] = hijack{loc: hijackerLoc, catchment: catchment}
	return nil
}

// ClearHijack removes an injected hijack.
func (w *World) ClearHijack(p Prefix24) {
	delete(w.hijacks, p)
}

// hijacked returns the effective endpoint location for a unicast probe,
// accounting for injected hijacks.
func (w *World) hijackedLoc(vp platform.VP, p Prefix24, orig geo.Coord) geo.Coord {
	h, ok := w.hijacks[p]
	if !ok {
		return orig
	}
	if detrand.UnitFloat(w.cfg.Seed, uint64(vp.ID), uint64(p), 0x41AC) < h.catchment {
		return h.loc
	}
	return orig
}

// QueryCHAOS issues the hostname.bind TXT/CH query of the Fan et al.
// enumeration baseline (paper [25]). DNS deployments answer with a
// per-instance server identifier; everything else stays silent. Like every
// probe, the reply comes from whichever replica BGP routes the vantage
// point to in the given round.
func (w *World) QueryCHAOS(vp platform.VP, target IP, round uint64) (serverID string, reply Reply) {
	rep := w.ProbeDNSUDP(vp, target, round)
	if !rep.OK() {
		return "", rep
	}
	d, _ := w.Deployment(target.Prefix())
	r := w.servingReplica(vp, d, round)
	// Operators conventionally encode the site in the identifier, e.g.
	// "ams01.as13335.net".
	code := strings.ToLower(strings.ReplaceAll(r.City.Name, " ", ""))
	if len(code) > 6 {
		code = code[:6]
	}
	return fmt.Sprintf("%s%02d.as%d.net", code, r.ID, d.ASN), rep
}
