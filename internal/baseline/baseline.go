// Package baseline implements the prior-art techniques the paper positions
// itself against (Sec. 2.2), so the comparison can be reproduced rather
// than asserted:
//
//   - CHAOS enumeration (Fan et al., paper [25]): hostname.bind TXT/CH
//     queries enumerate DNS server instances by their disclosed identifiers.
//     High recall on DNS deployments, no geolocation, inapplicable beyond
//     DNS.
//   - Speed-of-light detection (Madory et al., paper [35]): the pairwise
//     disk-disjointness test alone - detection without enumeration or
//     geolocation.
//   - Geolocation databases (paper [41]): one location per IP address,
//     structurally wrong for anycast.
//   - Constraint-based geolocation / latency triangulation (paper [28]):
//     multilateration assumes a single target location and fails when the
//     latency disks have empty intersection - exactly the anycast case.
package baseline

import (
	"anycastmap/internal/asdb"
	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

// CHAOSResult is the outcome of a CHAOS enumeration campaign against one
// target.
type CHAOSResult struct {
	// Answered reports whether any vantage point got a CHAOS answer
	// (false for every non-DNS deployment: the baseline's blind spot).
	Answered bool
	// ServerIDs is the set of distinct hostname.bind identifiers seen.
	ServerIDs map[string]bool
}

// Count returns the number of enumerated instances.
func (r CHAOSResult) Count() int { return len(r.ServerIDs) }

// CHAOSEnumerate runs hostname.bind TXT/CH queries from every vantage
// point across the given census rounds and collects the distinct server
// identifiers the answers disclose.
func CHAOSEnumerate(w *netsim.World, vps []platform.VP, target netsim.IP, rounds int) CHAOSResult {
	res := CHAOSResult{ServerIDs: map[string]bool{}}
	for _, vp := range vps {
		for round := 1; round <= rounds; round++ {
			serverID, reply := w.QueryCHAOS(vp, target, uint64(round))
			if !reply.OK() {
				continue
			}
			res.Answered = true
			res.ServerIDs[serverID] = true
		}
	}
	return res
}

// SOLDetect is the detection-only speed-of-light baseline: true iff some
// pair of measurement disks is disjoint. It is deliberately the naive
// O(n²) formulation, serving as the reference the optimized core.Detect is
// tested against.
func SOLDetect(ms []core.Measurement) bool {
	disks := make([]geo.Disk, len(ms))
	for i, m := range ms {
		disks[i] = m.Disk()
	}
	for i := 0; i < len(disks); i++ {
		for j := i + 1; j < len(disks); j++ {
			if !disks[i].Overlaps(disks[j]) {
				return true
			}
		}
	}
	return false
}

// GeoDB is a geolocation-database stand-in: like the commercial databases
// the paper calls unreliable (ref [41]), it stores exactly one location per
// prefix - typically the operator's home region - regardless of how many
// places announce it.
type GeoDB struct {
	byPrefix map[netsim.Prefix24]cities.City
}

// BuildGeoDB derives the database from registry and world metadata the way
// real databases do (WHOIS country, operator headquarters): every prefix of
// an AS maps to the largest city of the AS's registered country.
func BuildGeoDB(w *netsim.World, reg *asdb.Registry, db *cities.DB) *GeoDB {
	g := &GeoDB{byPrefix: map[netsim.Prefix24]cities.City{}}
	for _, as := range reg.All() {
		home, ok := homeCity(db, as.CC)
		if !ok {
			continue
		}
		for _, d := range w.DeploymentsByASN(as.ASN) {
			g.byPrefix[d.Prefix] = home
		}
	}
	return g
}

// homeCity picks the most populated city of a country.
func homeCity(db *cities.DB, cc string) (cities.City, bool) {
	for _, c := range db.All() {
		if c.CC == cc {
			return c, true
		}
	}
	return cities.City{}, false
}

// Lookup returns the database's single answer for a prefix.
func (g *GeoDB) Lookup(p netsim.Prefix24) (cities.City, bool) {
	c, ok := g.byPrefix[p]
	return c, ok
}

// CBGResult is the outcome of constraint-based multilateration.
type CBGResult struct {
	// Feasible reports whether the latency disks admit a common point -
	// the single-location assumption of triangulation.
	Feasible bool
	// Loc is the estimated location when feasible.
	Loc geo.Coord
	// ViolationKm is the residual infeasibility: how far the best point
	// still is outside the tightest violated disk. Positive values mean
	// the single-location model is broken (anycast).
	ViolationKm float64
}

// CBGLocate runs constraint-based geolocation (latency multilateration):
// it searches for a point inside every measurement disk. Unicast targets
// yield a feasible point near the true host; anycast targets violate the
// single-location assumption and come back infeasible.
func CBGLocate(ms []core.Measurement) CBGResult {
	if len(ms) == 0 {
		return CBGResult{}
	}
	disks := make([]geo.Disk, len(ms))
	smallest := 0
	for i, m := range ms {
		disks[i] = m.Disk()
		if disks[i].RadiusKm < disks[smallest].RadiusKm {
			smallest = i
		}
	}
	// Start at the center of the tightest constraint and descend the max
	// violation by repeatedly stepping toward the most violated disk.
	p := disks[smallest].Center
	step := disks[smallest].RadiusKm
	if step < 50 {
		step = 50
	}
	for iter := 0; iter < 120; iter++ {
		worst, worstViol := -1, 0.0
		for i := range disks {
			viol := geo.DistanceKm(p, disks[i].Center) - disks[i].RadiusKm
			if viol > worstViol {
				worst, worstViol = i, viol
			}
		}
		if worst < 0 {
			return CBGResult{Feasible: true, Loc: p}
		}
		// Move toward the violated disk's center by the lesser of the
		// violation and the current step.
		move := worstViol
		if move > step {
			move = step
		}
		p = geo.Interpolate(p, disks[worst].Center, move/geo.DistanceKm(p, disks[worst].Center))
		step *= 0.95
	}
	// Final violation check.
	maxViol := 0.0
	for i := range disks {
		if v := geo.DistanceKm(p, disks[i].Center) - disks[i].RadiusKm; v > maxViol {
			maxViol = v
		}
	}
	return CBGResult{Feasible: maxViol <= 1, Loc: p, ViolationKm: maxViol}
}
