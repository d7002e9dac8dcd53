// Package route is the serving-side consumer of the anycast map: a
// GSLB-style routing decision engine plus a DNS/UDP front-end that
// answers "which replica of this deployment should serve this client"
// at millions of queries per second with zero heap allocations per
// query.
//
// The census pipeline (ROADMAP item 3) ends in a snapshot that knows,
// for every detected anycast /24, the deployment's enumerated and
// geolocated replica instances. This package closes the loop from
// measurement to traffic steering — the workload "Anycast Performance
// in Context" measures at root-DNS/CDN scale: a client (identified by
// its /24, carried in an EDNS Client Subnet option or taken from the
// query's source address) asks about a service prefix, and the engine
// picks the replica under one of three pluggable policies:
//
//   - nearest-replica: the geographically closest enumerated instance
//     (one dot product per instance against precomputed unit vectors).
//   - catchment-affine: the instance whose isolating vantage point is
//     closest to the client — the replica the client's side of the
//     catchment actually reaches, per the census rows.
//   - health-weighted: nearest-replica restricted to instances whose
//     isolating VP was not quarantined in the snapshot's campaign.
//
// Every decision reads one snapshot loaded by Store.Current, so hot
// snapshot swaps never stall a query and a query never mixes versions.
package route

import (
	"fmt"

	"anycastmap/internal/detrand"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/store"
)

// Policy identifies one replica-selection strategy.
type Policy uint8

const (
	// PolicyNone is "no decision": the store had no snapshot, the
	// service is not anycast, or no policy produced a replica.
	PolicyNone Policy = iota
	// PolicyCatchmentAffine picks the instance whose isolating VP is
	// closest to the client.
	PolicyCatchmentAffine
	// PolicyHealthWeighted picks the nearest instance whose isolating
	// VP survived the campaign un-quarantined.
	PolicyHealthWeighted
	// PolicyNearestReplica picks the geographically nearest instance.
	PolicyNearestReplica

	numPolicies
)

// String returns the policy's wire name (the qname label that selects
// it).
func (p Policy) String() string {
	switch p {
	case PolicyCatchmentAffine:
		return "catchment-affine"
	case PolicyHealthWeighted:
		return "health-weighted"
	case PolicyNearestReplica:
		return "nearest-replica"
	default:
		return "none"
	}
}

// DefaultChain is the decision order when the caller names no policy:
// catchment affinity when the census saw the client's side of the
// catchment, demoting unhealthy replicas otherwise, plain proximity as
// the backstop.
var DefaultChain = []Policy{PolicyCatchmentAffine, PolicyHealthWeighted, PolicyNearestReplica}

// Locator estimates a client /24's coordinates. Implementations must be
// safe for concurrent use and must not allocate per call.
type Locator interface {
	Locate(p netsim.Prefix24) (geo.Coord, bool)
}

// LocatorFunc adapts a function to the Locator interface.
type LocatorFunc func(netsim.Prefix24) (geo.Coord, bool)

// Locate implements Locator.
func (f LocatorFunc) Locate(p netsim.Prefix24) (geo.Coord, bool) { return f(p) }

// HashLocator synthesizes deterministic client coordinates from the
// prefix bits — the simulator's stand-in for an IP-geolocation
// database, matching how netsim scatters hosts. Latitudes stay within
// the populated band [-60, 70].
type HashLocator struct{ Seed uint64 }

// Locate implements Locator.
func (l HashLocator) Locate(p netsim.Prefix24) (geo.Coord, bool) {
	lat := -60 + 130*detrand.UnitFloat(l.Seed, uint64(p), 0x1a7)
	lon := -180 + 360*detrand.UnitFloat(l.Seed, uint64(p), 0x10f)
	return geo.Coord{Lat: lat, Lon: lon}, true
}

// Config wires an Engine.
type Config struct {
	// Store supplies the published snapshots. Required.
	Store *store.Store
	// Service is the deployment prefix Decide routes for; DecideFor
	// overrides it per call (the DNS front-end always does).
	Service netsim.Prefix24
	// Policies is the decision chain, tried in order until one produces
	// a replica. Empty means DefaultChain.
	Policies []Policy
	// Locator places client prefixes; nil means HashLocator{}.
	Locator Locator
	// VPs is the measurement platform behind the snapshot's census:
	// catchment-affine routing resolves each instance's isolating VP
	// name to these coordinates.
	VPs []platform.VP
}

// Engine turns snapshot entries into routing decisions. All fields are
// written once at construction; Decide is safe for any number of
// concurrent callers and allocates nothing.
type Engine struct {
	store   *store.Store
	service netsim.Prefix24
	chain   [numPolicies]Policy
	chainN  int
	locator Locator
	// vpVec maps a VP name to its precomputed unit vector. Reads of a
	// prebuilt map allocate nothing.
	vpVec map[string][3]float64
}

// NewEngine validates the config and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("route: Config.Store is required")
	}
	e := &Engine{
		store:   cfg.Store,
		service: cfg.Service,
		locator: cfg.Locator,
		vpVec:   make(map[string][3]float64, len(cfg.VPs)),
	}
	if e.locator == nil {
		e.locator = HashLocator{}
	}
	chain := cfg.Policies
	if len(chain) == 0 {
		chain = DefaultChain
	}
	if len(chain) > len(e.chain) {
		return nil, fmt.Errorf("route: chain of %d policies exceeds %d", len(chain), len(e.chain))
	}
	for i, p := range chain {
		if p == PolicyNone || p >= numPolicies {
			return nil, fmt.Errorf("route: invalid policy %d in chain", p)
		}
		e.chain[i] = p
	}
	e.chainN = len(chain)
	for _, vp := range cfg.VPs {
		e.vpVec[vp.Name] = geo.UnitVec(vp.Loc)
	}
	return e, nil
}

// Answer is one routing decision. Its strings are the snapshot's own,
// so an Answer stays valid across snapshot swaps.
type Answer struct {
	// Client and Service echo the question.
	Client  netsim.Prefix24
	Service netsim.Prefix24
	// Version is the snapshot version the decision read; 0 means the
	// store had no snapshot yet (the front-end answers SERVFAIL).
	Version uint64
	// Anycast reports whether the service prefix is in the map.
	Anycast bool
	// Replica is the index of the chosen instance within the entry, or
	// -1 when no policy produced one. Addr is the replica's synthesized
	// service address: host byte 1+Replica inside the service /24.
	Replica  int
	Replicas int
	Addr     netsim.IP
	// ViaVP, City, CC, Located, Lat, Lon describe the chosen instance.
	ViaVP   string
	City    string
	CC      string
	Located bool
	Lat     float64
	Lon     float64
	// DistKm is the great-circle distance from the located client to
	// the chosen instance (0 when the client could not be located).
	DistKm float64
	ASN    int
}

// Decide routes a client /24 to a replica of the engine's configured
// service, returning the decision and the policy that made it.
func (e *Engine) Decide(client netsim.Prefix24) (Answer, Policy) {
	return e.DecideFor(client, e.service, PolicyNone)
}

// DecideFor routes client to a replica of service. A non-None prefer
// policy is tried before the configured chain (the chain still runs as
// fallback, skipping the preferred policy). The whole call performs no
// heap allocation: it loads the snapshot once and walks the entry's
// instances.
func (e *Engine) DecideFor(client, service netsim.Prefix24, prefer Policy) (Answer, Policy) {
	ans := Answer{Client: client, Service: service, Replica: -1}
	snap := e.store.Current()
	if snap == nil {
		return ans, PolicyNone
	}
	ans.Version = snap.Version()
	entry, ok := snap.LookupPrefix(service)
	if !ok {
		return ans, PolicyNone
	}
	ans.Anycast = true
	ans.ASN = entry.ASN
	ans.Replicas = entry.Replicas

	cl, located := e.locator.Locate(client)
	var cvec [3]float64
	if located {
		cvec = geo.UnitVec(cl)
	}

	decided := PolicyNone
	best := -1
	if prefer != PolicyNone {
		if best = e.apply(prefer, entry, snap, cvec, located); best >= 0 {
			decided = prefer
		}
	}
	for i := 0; i < e.chainN && best < 0; i++ {
		p := e.chain[i]
		if p == prefer {
			continue
		}
		if best = e.apply(p, entry, snap, cvec, located); best >= 0 {
			decided = p
		}
	}
	if best >= 0 {
		in := &entry.Instances[best]
		ans.Replica = best
		ans.Addr = service.Host(replicaHostByte(best))
		ans.ViaVP = in.ViaVP
		ans.City = in.City
		ans.CC = in.CC
		ans.Located = in.Located
		ans.Lat, ans.Lon = in.Lat, in.Lon
		if located {
			ans.DistKm = geo.VecDistKm(in.Dot(cvec[0], cvec[1], cvec[2]))
		}
	}
	return ans, decided
}

// replicaHostByte maps an instance index to the host byte of its
// synthesized service address, skipping .0.
func replicaHostByte(i int) byte {
	if i >= 254 {
		i = 254
	}
	return byte(i + 1)
}

// apply runs one policy over the entry's instances and returns the
// chosen index, or -1 when the policy abstains. Ties break to the
// lowest instance index, which together with the instances' fixed
// snapshot order makes every decision deterministic.
func (e *Engine) apply(p Policy, entry *store.Entry, snap *store.Snapshot, cvec [3]float64, located bool) int {
	if len(entry.Instances) == 0 {
		return -1
	}
	best, bestDot := -1, -2.0
	// geo.VecDot(cvec, v), on registers and in the same order: the
	// inlined call copies both arrays through the stack at every instance.
	c0, c1, c2 := cvec[0], cvec[1], cvec[2]
	switch p {
	case PolicyNearestReplica:
		if !located {
			return -1
		}
		for i := range entry.Instances {
			if d := entry.Instances[i].Dot(c0, c1, c2); d > bestDot {
				best, bestDot = i, d
			}
		}
	case PolicyHealthWeighted:
		if !located {
			return -1
		}
		quarantined := snap.Health().Quarantined
		if len(quarantined) == 0 {
			// A clean campaign demotes nothing; abstain so the chain's
			// answer is attributed to the policy that actually chose.
			return -1
		}
		for i := range entry.Instances {
			in := &entry.Instances[i]
			if containsSorted(quarantined, in.ViaVP) {
				continue
			}
			if d := in.Dot(c0, c1, c2); d > bestDot {
				best, bestDot = i, d
			}
		}
	case PolicyCatchmentAffine:
		if !located {
			return -1
		}
		for i := range entry.Instances {
			vec, ok := e.vpVec[entry.Instances[i].ViaVP]
			if !ok {
				continue
			}
			if d := c0*vec[0] + c1*vec[1] + c2*vec[2]; d > bestDot {
				best, bestDot = i, d
			}
		}
	}
	return best
}

// containsSorted reports whether sorted contains s — a hand-rolled
// binary search: CampaignHealth.Quarantined is sorted and deduplicated
// by construction, and the stdlib's sort.SearchStrings would force the
// closure (and the slice header) to escape.
func containsSorted(sorted []string, s string) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == s
}
