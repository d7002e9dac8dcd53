package netsim

import (
	"math"
	"time"

	"anycastmap/internal/detrand"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// reference answers the probes of its world straight from the model's
// definition, with none of the production path's machinery: no session,
// no span plan, no flat replica geometry, no cached base, no target
// class. Every draw is spelled out from its key tuple and every RTT
// computed whole, per call, from the vantage point's and the endpoint's
// coordinates. It reads only what the world is made of - the slot index,
// the deployments and their replica lists, the unicast hosts, the service
// inventory, the installed faults and the live hijacks - so a change to
// the probe path that moves a reply fails the bit-identity tests, which
// hold every production reply to this one.
type reference struct{ w *World }

// prober is what a probe sweep calls: the world or its reference.
type prober interface {
	ProbeICMP(vp platform.VP, target IP, round uint64) Reply
	ProbeTCP(vp platform.VP, target IP, port uint16, round uint64) Reply
	ProbeDNSUDP(vp platform.VP, target IP, round uint64) Reply
}

// vpState is the hash state of the (seed, vantage point) tuple prefix
// every per-VP draw begins with.
func (r reference) vpState(vp platform.VP) detrand.State {
	return detrand.Begin(r.w.cfg.Seed, uint64(vp.ID))
}

// lost is the transient-loss draw (0xC0FF): 2.5% of probes, per
// (vantage point, target, round), get no answer.
func (r reference) lost(vp platform.VP, target IP, round uint64) bool {
	return r.vpState(vp).With(uint64(target)).With(round).With(0xC0FF).Unit() < 0.025
}

// alive reports whether an address of a deployment's /24 answers: its
// representative always, any other one with the /24's density (0xA11E).
func (r reference) alive(d *Deployment, target IP) bool {
	return target == d.rep || detrand.UnitFloat(r.w.cfg.Seed, uint64(target), 0xA11E) < d.Density
}

// pathRTT is the model's round-trip time between a vantage point and an
// endpoint at loc keyed (endpointKey, subKey): fiber propagation along a
// path stretched per (vantage, endpoint) pair (0xB70, capped at 3), the
// vantage point's access term (0xB71), a fixed 0.1 ms, the endpoint's
// access term (0xB72, no vantage point in its key) and the probe's
// queueing jitter (0xB73), scaled by the vantage point's load.
func (r reference) pathRTT(vp platform.VP, endpointKey uint64, loc geo.Coord, subKey uint64, target IP, round uint64) time.Duration {
	cfg := r.w.cfg
	vpSt := r.vpState(vp)
	propMs := 2 * geo.DistanceKm(vp.Loc, loc) / geo.FiberSpeedKmPerMs
	stretch := cfg.StretchBase + cfg.StretchExtra*vpSt.With(endpointKey).With(subKey).With(0xB70).Exp()
	if stretch > 3.0 {
		stretch = 3.0
	}
	vpAccess := 0.2 + cfg.AccessMs*vpSt.With(0xB71).Unit()
	endAccess := cfg.AccessMs * 0.5 * detrand.Begin(cfg.Seed).With(endpointKey).With(subKey).With(0xB72).Unit()
	baseMs := propMs*stretch + (vpAccess + 0.1 + endAccess)
	jitterMs := cfg.JitterMs * (0.3 + 1.2*vp.LoadFactor) * vpSt.With(uint64(target)).With(round).With(0xB73).Exp()
	return time.Duration(math.Ceil((baseMs + jitterMs) * float64(time.Millisecond)))
}

// servingReplica ranks the deployment's three replicas nearest the
// vantage point - strict <, so a tie goes to the earlier replica - and
// picks the nearest for 70% of (vantage, prefix) pairs, the second for
// 20% and the third for the rest (0xB69); in 12% of (vantage, prefix,
// round) triples the catchment flaps (0xF1A9) and a fresh draw (0xB6A)
// picks with the same odds.
func (r reference) servingReplica(vp platform.VP, d *Deployment, round uint64) Replica {
	if len(d.Replicas) == 1 {
		return d.Replicas[0]
	}
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
	pair := r.vpState(vp).With(uint64(d.Prefix))
	u := pair.With(0xB69).Unit()
	if flap := pair.With(round); flap.With(0xF1A9).Unit() < 0.12 {
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

// ServingReplica is World.ServingReplica from the model.
func (r reference) ServingReplica(vp platform.VP, p Prefix24, round uint64) (Replica, bool) {
	d, ok := r.w.Deployment(p)
	if !ok {
		return Replica{}, false
	}
	return r.servingReplica(vp, d, round), true
}

// hostLoc is where a unicast /24's traffic from the vantage point ends:
// the hijacker's location when a live hijack covers p and the vantage
// point falls in its catchment (0x41AC), the host's otherwise.
func (r reference) hostLoc(vp platform.VP, p Prefix24, h *unicastHost) geo.Coord {
	if hj, ok := r.w.hijacks[p]; ok && detrand.UnitFloat(r.w.cfg.Seed, uint64(vp.ID), uint64(p), 0x41AC) < hj.catchment {
		return hj.loc
	}
	return r.w.site(h).loc
}

// anycastRTT is the RTT of an answered anycast probe: toward the replica
// that serves the vantage point this round, keyed (prefix, replica ID).
func (r reference) anycastRTT(vp platform.VP, d *Deployment, target IP, round uint64) time.Duration {
	rep := r.servingReplica(vp, d, round)
	return r.pathRTT(vp, uint64(d.Prefix), rep.Loc, uint64(rep.ID), target, round)
}

// ProbeICMP is World.ProbeICMP from the model: an allocated, reachable
// target answers when it is alive - an anycast /24's representative or a
// density hit; a unicast /24's representative unless its host is silent -
// and the probe is not lost; a unicast host answers with its class's
// reply kind from wherever its /24's traffic ends.
func (r reference) ProbeICMP(vp platform.VP, target IP, round uint64) Reply {
	w := r.w
	p := target.Prefix()
	i, ok := w.lookup(p)
	if !ok || w.faults.TargetUnreachable(p, round) {
		return Reply{Kind: ReplyTimeout}
	}
	if i >= 0 {
		d := w.deployments[i]
		if !r.alive(d, target) || r.lost(vp, target, round) {
			return Reply{Kind: ReplyTimeout}
		}
		return Reply{Kind: ReplyEcho, RTT: r.anycastRTT(vp, d, target, round)}
	}
	h := &w.unicast[-(i + 1)]
	if target != h.rep || h.class == classSilent || r.lost(vp, target, round) {
		return Reply{Kind: ReplyTimeout}
	}
	rtt := r.pathRTT(vp, uint64(p), r.hostLoc(vp, p, h), 0, target, round)
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

// ProbeTCP is World.ProbeTCP from the model: an alive anycast address
// answers on a port its AS has open unless an in-path firewall drops the
// (vantage, target, port) SYN (2%, 0xF11); a responsive unicast
// representative runs a service on the port with the port's odds (0xF12)
// and answers from its home location, hijacked or not.
func (r reference) ProbeTCP(vp platform.VP, target IP, port uint16, round uint64) Reply {
	w := r.w
	p := target.Prefix()
	i, ok := w.lookup(p)
	if !ok || w.faults.TargetUnreachable(p, round) {
		return Reply{Kind: ReplyTimeout}
	}
	if i >= 0 {
		d := w.deployments[i]
		if !r.alive(d, target) {
			return Reply{Kind: ReplyTimeout}
		}
		if set, has := w.Services.ByASN(d.ASN); !has || !set.Open(port) {
			return Reply{Kind: ReplyTimeout}
		}
		if detrand.UnitFloat(w.cfg.Seed, uint64(vp.ID), uint64(target), uint64(port), 0xF11) < 0.02 {
			return Reply{Kind: ReplyTimeout}
		}
		return Reply{Kind: ReplyEcho, RTT: r.anycastRTT(vp, d, target, round)}
	}
	h := &w.unicast[-(i + 1)]
	if target != h.rep || h.class != classResponsive {
		return Reply{Kind: ReplyTimeout}
	}
	odds := map[uint16]float64{80: 0.20, 443: 0.15, 22: 0.12, 53: 0.04}[port]
	if odds == 0 {
		odds = 0.01
	}
	if detrand.UnitFloat(w.cfg.Seed, uint64(target), uint64(port), 0xF12) >= odds {
		return Reply{Kind: ReplyTimeout}
	}
	return Reply{Kind: ReplyEcho, RTT: r.pathRTT(vp, uint64(p), w.site(h).loc, 0, target, round)}
}

// ProbeDNSUDP is World.ProbeDNSUDP from the model: an alive address of a
// reachable deployment whose AS serves DNS over UDP answers.
func (r reference) ProbeDNSUDP(vp platform.VP, target IP, round uint64) Reply {
	d, ok := r.w.Deployment(target.Prefix())
	if !ok || r.w.faults.TargetUnreachable(d.Prefix, round) || !r.alive(d, target) {
		return Reply{Kind: ReplyTimeout}
	}
	if set, has := r.w.Services.ByASN(d.ASN); !has || !set.ServesDNSOverUDP {
		return Reply{Kind: ReplyTimeout}
	}
	return Reply{Kind: ReplyEcho, RTT: r.anycastRTT(vp, d, target, round)}
}

// tracerouteRTT is the RTT of World.Traceroute's final hop from the
// model, keyed to the /24 alone (subkey 0) toward the endpoint that
// serves the vantage point; ok is false when the trace would be empty.
func (r reference) tracerouteRTT(vp platform.VP, target IP, round uint64) (rtt time.Duration, ok bool) {
	w := r.w
	p := target.Prefix()
	i, ok := w.lookup(p)
	if !ok {
		return 0, false
	}
	var endpoint geo.Coord
	if i >= 0 {
		d := w.deployments[i]
		if !r.alive(d, target) {
			return 0, false
		}
		endpoint = r.servingReplica(vp, d, round).Loc
	} else {
		h := &w.unicast[-(i + 1)]
		if target != h.rep || h.class != classResponsive {
			return 0, false
		}
		endpoint = r.hostLoc(vp, p, h)
	}
	return r.pathRTT(vp, uint64(p), endpoint, 0, target, round), true
}
