// Package store is the serving layer over census results: the paper's
// public anycast map (Sec. 2.3, ref [21]) turned into a queryable index.
// A census campaign produces an immutable, versioned Snapshot — every
// detected anycast /24 with its AS attribution, replica count and
// geolocated instances — indexed for O(log n) per-IP lookup. A Store
// publishes snapshots through an atomic pointer so readers never take a
// lock, and a Reloader hot-swaps each new snapshot file `census
// -snapshot` writes with zero reader downtime.
package store

import (
	"sort"
	"time"

	"anycastmap/internal/analysis"
	"anycastmap/internal/asdb"
	"anycastmap/internal/census"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
)

// Instance is one geolocated anycast replica of a deployment.
type Instance struct {
	// City and CC identify the classified location; empty when the
	// replica's disk contained no known city.
	City string `json:"city,omitempty"`
	CC   string `json:"cc,omitempty"`
	// Lat/Lon are the city coordinates when located, otherwise the
	// centre of the constraining disk.
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	// ViaVP is the vantage point whose disk isolated the replica.
	ViaVP string `json:"via_vp"`
	// Located is false for enumerated-but-unplaced replicas.
	Located bool `json:"located"`

	// vec is the Earth-centered unit vector of (Lat, Lon), derived at
	// construction/decode time (never serialized) so the routing
	// engine's nearest-replica scan is one dot product per instance.
	vec [3]float64
}

// Dot returns geo.VecDot(u, v) of u = (u0, u1, u2) and the precomputed
// unit vector v of the instance's coordinates (geo.UnitVec of Lat/Lon),
// in the same order, read in place: a scan over the instances copies no
// array.
func (in *Instance) Dot(u0, u1, u2 float64) float64 {
	return u0*in.vec[0] + u1*in.vec[1] + u2*in.vec[2]
}

// Entry is one detected anycast /24 in a snapshot.
type Entry struct {
	Prefix   netsim.Prefix24 `json:"-"`
	ASN      int             `json:"asn"`
	ASName   string          `json:"as_name,omitempty"`
	Category string          `json:"category,omitempty"`
	// Replicas is the conservative replica count (the MIS lower bound).
	Replicas int `json:"replicas"`
	// Cities is the sorted distinct set of located replica cities.
	Cities []string `json:"cities,omitempty"`
	// Instances carries the individual geolocated replicas.
	Instances []Instance `json:"instances,omitempty"`

	// prefixStr caches Prefix.String(), derived at construction/decode
	// time so hot response paths render the CIDR without allocating.
	prefixStr string
}

// PrefixString returns the cached CIDR form of the entry's prefix. It
// only allocates for entries built outside NewSnapshot/decodeSnapEntry
// (struct literals in tests).
func (e *Entry) PrefixString() string {
	if e.prefixStr != "" {
		return e.prefixStr
	}
	return e.Prefix.String()
}

// Snapshot is one immutable, versioned index over a census campaign's
// findings. All fields are written once during construction (plus the
// version stamp at publish time) and never mutated afterwards, so any
// number of readers may share a snapshot without synchronization.
type Snapshot struct {
	version uint64
	round   uint64
	rounds  int
	builtAt time.Time
	health  census.CampaignHealth

	// prefixes is sorted ascending; entries is parallel to it. The pair
	// is the O(log n) lookup index: a /24 probe key binary-searches
	// prefixes and lands on its entry. NewSnapshot and OpenSnapshotFile
	// fill both.
	prefixes []netsim.Prefix24
	entries  []Entry

	ases          int
	totalReplicas int
}

// NewSnapshot indexes a finding set. round is the census round the
// campaign ended on and rounds how many censuses were combined; reg
// resolves AS names and categories (nil leaves them empty). Duplicate
// prefixes keep the last finding.
func NewSnapshot(fs []analysis.Finding, reg *asdb.Registry, round uint64, rounds int) *Snapshot {
	s := &Snapshot{
		round:   round,
		rounds:  rounds,
		builtAt: time.Now(),
	}

	sorted := make([]analysis.Finding, len(fs))
	copy(sorted, fs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Prefix < sorted[j].Prefix })

	ases := make(map[int]bool)
	for _, f := range sorted {
		e := Entry{
			Prefix:    f.Prefix,
			prefixStr: f.Prefix.String(),
			ASN:       f.ASN,
			Replicas:  f.Result.Count(),
			Cities:    f.Result.Cities(),
		}
		if reg != nil {
			if as, ok := reg.ByASN(f.ASN); ok {
				e.ASName, e.Category = as.Name, as.Category.String()
			}
		}
		for _, r := range f.Result.Replicas {
			in := Instance{ViaVP: r.VP, Located: r.Located}
			if r.Located {
				in.City, in.CC = r.City.Name, r.City.CC
				in.Lat, in.Lon = r.City.Loc.Lat, r.City.Loc.Lon
			} else {
				in.Lat, in.Lon = r.Disk.Center.Lat, r.Disk.Center.Lon
			}
			in.vec = geo.UnitVec(geo.Coord{Lat: in.Lat, Lon: in.Lon})
			e.Instances = append(e.Instances, in)
		}
		if n := len(s.prefixes); n > 0 && s.prefixes[n-1] == f.Prefix {
			s.totalReplicas += e.Replicas - s.entries[n-1].Replicas
			s.entries[n-1] = e
			continue
		}
		s.prefixes = append(s.prefixes, f.Prefix)
		s.entries = append(s.entries, e)
		ases[f.ASN] = true
		s.totalReplicas += e.Replicas
	}
	s.ases = len(ases)
	return s
}

// Lookup classifies a single IP against the index: the entry of its /24
// when that /24 was detected anycast, or (nil, false).
func (s *Snapshot) Lookup(ip netsim.IP) (*Entry, bool) {
	return s.LookupPrefix(ip.Prefix())
}

// LookupPrefix is Lookup at /24 granularity.
func (s *Snapshot) LookupPrefix(p netsim.Prefix24) (*Entry, bool) {
	i := sort.Search(len(s.prefixes), func(i int) bool { return s.prefixes[i] >= p })
	if i < len(s.prefixes) && s.prefixes[i] == p {
		return &s.entries[i], true
	}
	return nil, false
}

// Close does nothing: a snapshot owns only heap memory, which the GC
// reclaims once no reader holds it. It stays only because bench/ closes
// the snapshots it opens.
func (s *Snapshot) Close() error { return nil }

// SetHealth records the campaign health of the snapshot's build. Like
// every other field it must be set before the snapshot is published.
func (s *Snapshot) SetHealth(h census.CampaignHealth) { s.health = h }

// Health returns the campaign health recorded at build time. The zero
// value means a clean campaign (or a snapshot built before health
// tracking).
func (s *Snapshot) Health() census.CampaignHealth { return s.health }

// Degraded reports whether the snapshot's campaign quarantined any
// vantage point.
func (s *Snapshot) Degraded() bool { return s.health.Degraded() }

// Version is the publish stamp, 0 before the snapshot is published.
func (s *Snapshot) Version() uint64 { return s.version }

// Round is the census round the snapshot's campaign ended on.
func (s *Snapshot) Round() uint64 { return s.round }

// Rounds is how many censuses were min-RTT-combined into the snapshot.
func (s *Snapshot) Rounds() int { return s.rounds }

// BuiltAt is the construction time.
func (s *Snapshot) BuiltAt() time.Time { return s.builtAt }

// Len returns the number of indexed anycast /24s.
func (s *Snapshot) Len() int { return len(s.entries) }

// ASes returns the number of distinct origin ASes.
func (s *Snapshot) ASes() int { return s.ases }

// TotalReplicas returns the summed conservative replica counts.
func (s *Snapshot) TotalReplicas() int { return s.totalReplicas }

// Entries exposes the indexed entries in prefix order. The slice is the
// snapshot's own storage: callers must treat it as read-only.
func (s *Snapshot) Entries() []Entry { return s.entries }
