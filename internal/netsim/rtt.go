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
// estimate toward the propagation delay (Sec. 4.1). An ad hoc probe is a
// span of one: its target is planned and bound on the stack and answered
// by SpanSession.ICMP, the census's own path.
func (w *World) ProbeICMP(vp platform.VP, target IP, round uint64) Reply {
	var (
		targets  = [1]IP{target}
		cls      [1]uint8
		pts      [1]geo.Point
		payload  [1]uint64
		hijacked [1]int32
		base     [1]float64
	)
	pl := SpanPlan{targets: targets[:], cls: cls[:], pts: pts[:], payload: payload[:], hijacked: hijacked[:0]}
	pl.hijacked = w.plan(&pl)
	ss := SpanSession{w: w, s: w.session(vp), vpID: vp.ID, load: vp.LoadFactor, plan: &pl, base: base[:]}
	ss.bind()
	return ss.ICMP(0, round)
}

// anycastRTT produces the RTT of a successful anycast probe of deployment
// di: the session's ranking, with the serving candidate's base built on
// the spot.
func (w *World) anycastRTT(vp platform.VP, di int32, target IP, round uint64) time.Duration {
	s := w.session(vp)
	return w.rttFromBaseMs(w.servedBaseMs(s, di, round), vp.LoadFactor, probeState(s.st, target, round))
}

// ProbeTCP attempts a TCP SYN/SYN-ACK handshake to the given port
// (Sec. 3.4: L4 measurements only succeed when the service is known a
// priori; Sec. 4.3: the portscan campaign).
func (w *World) ProbeTCP(vp platform.VP, target IP, port uint16, round uint64) Reply {
	cls, i := w.classify(target)
	if cls != spanAnycast && cls != spanUniEcho || w.faults.TargetUnreachable(target.Prefix(), round) {
		return Reply{Kind: ReplyTimeout}
	}
	if cls == spanAnycast {
		set, has := w.Services.ByASN(w.deployments[i].ASN)
		if !has || !set.Open(port) {
			return Reply{Kind: ReplyTimeout}
		}
		// Conservative loss: some in-path firewall drops SYNs for a small
		// fraction of (vantage, port) pairs (Sec. 4.3 notes probe
		// filtering makes port counts an underestimate).
		if detrand.UnitFloat(w.cfg.Seed, uint64(vp.ID), uint64(target), uint64(port), 0xF11) < 0.02 {
			return Reply{Kind: ReplyTimeout}
		}
		return Reply{Kind: ReplyEcho, RTT: w.anycastRTT(vp, i, target, round)}
	}
	// Responsive unicast representatives run the occasional service. TCP
	// probes always reach the host's home location: the injected hijacks
	// model an ICMP-era attack and never attract transport traffic.
	var odds float64
	switch port {
	case 80:
		odds = 0.20
	case 443:
		odds = 0.15
	case 22:
		odds = 0.12
	case 53:
		odds = 0.04
	default:
		odds = 0.01
	}
	if detrand.UnitFloat(w.cfg.Seed, uint64(target), uint64(port), 0xF12) >= odds {
		return Reply{Kind: ReplyTimeout}
	}
	h, p, s := w.site(&w.unicast[-(i+1)]), target.Prefix(), w.session(vp)
	base := w.hostBaseMs(s, p, geo.PrepareCos(h.loc, h.cosLat), w.endpointAccessMs(uint64(p), 0))
	return Reply{Kind: ReplyEcho, RTT: w.rttFromBaseMs(base, vp.LoadFactor, probeState(s.st, target, round))}
}

// ProbeDNSUDP sends a DNS query over UDP (the dig test of Fig. 6): only
// deployments actually operating a UDP DNS service answer, and none
// while a target outage has their /24 down.
func (w *World) ProbeDNSUDP(vp platform.VP, target IP, round uint64) Reply {
	cls, i := w.classify(target)
	if cls != spanAnycast || w.faults.TargetUnreachable(target.Prefix(), round) {
		return Reply{Kind: ReplyTimeout}
	}
	set, has := w.Services.ByASN(w.deployments[i].ASN)
	if !has || !set.ServesDNSOverUDP {
		return Reply{Kind: ReplyTimeout}
	}
	return Reply{Kind: ReplyEcho, RTT: w.anycastRTT(vp, i, target, round)}
}

// ProbeDNSTCP sends a DNS query over TCP: it needs both an open port 53 and
// a DNS service behind it.
func (w *World) ProbeDNSTCP(vp platform.VP, target IP, round uint64) Reply {
	d, ok := w.Deployment(target.Prefix())
	if !ok {
		return Reply{Kind: ReplyTimeout}
	}
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
// The three replicas nearest the vantage point, by great-circle distance
// (ties to the earlier replica), answer 70%, 20% and 10% of the
// (vantage, prefix) pairs (draw 0xB69). About 12% of (vantage, prefix)
// catchments flap between census rounds (0xF1A9), a fresh draw (0xB6A)
// picking among the three for that round: the imperfect anycast affinity
// documented by the DNS literature the paper builds on. servingRank makes
// the draws and rank finds the replica of the rank drawn (servingIndex).
func (w *World) servingReplica(vp platform.VP, d *Deployment, round uint64) Replica {
	return d.Replicas[w.servingIndex(w.session(vp), &w.geom[d.idx], round)]
}

// probeState mixes one probe's (target, round) into the vantage point's
// session state (vpSession.st): the state both per-probe draws - loss (0xC0FF) and queueing
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
// and a span plan per unicast host.
func (w *World) endpointAccessMs(endpointKey, subKey uint64) float64 {
	return w.cfg.AccessMs * 0.5 * w.seedSt.With(endpointKey).With(subKey).With(0xB72).Unit()
}

// rttBaseMsDist is the probe-invariant part of the RTT model: propagation
// along the stretched path (2 x distKm at fiber speed, times the pair's
// stretch) plus access latency at both ends. The model maintains the
// physical invariant the detection technique relies on: RTT >=
// PropagationRTT(vp, endpoint), so a disk built from a measured RTT
// always contains the answering endpoint. The float expressions are
// associated exactly as the model's reference writes them, so a cached
// base plus live jitter reproduces its RTT bit for bit. vpSt is the
// session's st, vpAccess its vpAccessMs and endAccess the endpoint's
// endpointAccessMs.
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

// hijacker returns where a live hijack of p takes the traffic of the
// vantage point with ID vpID, and false when no hijack covers p or the
// vantage point lies outside its catchment (draw 0x41AC).
func (w *World) hijacker(vpID int, p Prefix24) (geo.Coord, bool) {
	h, ok := w.hijacks[p]
	if !ok || detrand.UnitFloat(w.cfg.Seed, uint64(vpID), uint64(p), 0x41AC) >= h.catchment {
		return geo.Coord{}, false
	}
	return h.loc, true
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
