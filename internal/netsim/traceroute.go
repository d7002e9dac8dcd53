package netsim

import (
	"math"
	"time"

	"anycastmap/internal/detrand"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// Hop is one row of a traceroute: the router that answered at a given TTL.
type Hop struct {
	TTL    int
	Router IP
	RTT    time.Duration
}

// Traceroute runs a TTL-scoped path measurement from the vantage point
// toward the target (Sec. 5: the cross-check for hijack alarms). The path
// follows the great circle toward whichever endpoint actually serves the
// vantage point - the anycast replica BGP selects, the unicast host, or,
// for hijacked prefixes, the hijacker. Routers are keyed on geographic
// corridor cells, so two paths through the same region traverse the same
// routers and path divergence is observable, exactly what the hijack
// cross-check needs. It returns nil when the target does not answer.
func (w *World) Traceroute(vp platform.VP, target IP, round uint64) []Hop {
	var endpoint geo.Coord
	switch cls, i := w.classify(target); cls {
	case spanAnycast:
		endpoint = w.servingReplica(vp, w.deployments[i], round).Loc
	case spanUniEcho:
		endpoint = w.site(&w.unicast[-(i + 1)]).loc
		if loc, ok := w.hijacker(vp.ID, target.Prefix()); ok {
			endpoint = loc
		}
	default:
		return nil
	}

	// The final hop's RTT is the model's, keyed to the /24 alone.
	p := target.Prefix()
	s := w.session(vp)
	base := w.hostBaseMs(s, p, geo.Prepare(endpoint), w.endpointAccessMs(uint64(p), 0))
	total := w.rttFromBaseMs(base, vp.LoadFactor, probeState(s.st, target, round))
	dist := geo.DistanceKm(vp.Loc, endpoint)

	// One router roughly every 1,200 km, at least two (access + border),
	// at most twelve - a plausible AS-path-times-IGP hop count.
	nHops := 2 + int(dist/1200)
	if nHops > 12 {
		nHops = 12
	}

	hops := make([]Hop, 0, nHops+1)
	for h := 1; h <= nHops; h++ {
		frac := float64(h) / float64(nHops+1)
		loc := geo.Interpolate(vp.Loc, endpoint, frac)
		hops = append(hops, Hop{
			TTL:    h,
			Router: routerAt(w.cfg.Seed, loc),
			RTT:    time.Duration(float64(total) * math.Pow(frac, 0.9)),
		})
	}
	// The final hop is the target itself.
	hops = append(hops, Hop{TTL: nHops + 1, Router: target, RTT: total})
	return hops
}

// routerAt derives a stable router address for a 3-degree corridor cell.
// Routers live in 198.18.0.0/15 (the benchmarking range), far from the
// census's allocated space.
func routerAt(seed uint64, loc geo.Coord) IP {
	cellLat := int(math.Floor((loc.Lat + 90) / 3))
	cellLon := int(math.Floor((loc.Lon + 180) / 3))
	h := detrand.Hash64(seed, uint64(cellLat), uint64(cellLon), 0x7207)
	return IP(198<<24 | 18<<16 | uint32(h)&0x1FFFF)
}

// PathDivergence compares two traceroutes and returns the number of shared
// leading routers and the total length of the shorter path. A hijacked
// prefix shows a short shared prefix followed by a completely different
// tail.
func PathDivergence(a, b []Hop) (shared, minLen int) {
	minLen = len(a)
	if len(b) < minLen {
		minLen = len(b)
	}
	for i := 0; i < minLen; i++ {
		if a[i].Router != b[i].Router {
			break
		}
		shared++
	}
	return shared, minLen
}
