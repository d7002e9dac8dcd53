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
	"sync"
	"sync/atomic"
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

// UnitVec returns the precomputed unit vector of the instance's
// coordinates (geo.UnitVec of Lat/Lon).
func (in *Instance) UnitVec() [3]float64 { return in.vec }

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
	// prefixes and lands on its entry. For a file-backed snapshot
	// (OpenSnapshotFile) prefixes is a zero-copy view into the mapping,
	// entries is nil, and the lazy table below takes its place.
	prefixes []netsim.Prefix24
	entries  []Entry

	ases          int
	totalReplicas int

	// File-backed serving state (snapfile.go). m refcounts the mapped
	// bytes; entriesBlob/entryOff address each entry's encoding inside
	// them; lazy caches decoded entries (heap copies, safe to hold after
	// the unmap) so a hot /24 decodes exactly once. Raw-memory access —
	// LookupPrefix's binary search, an entry's first decode — must happen
	// under an acquired mapping reference (Store.Acquire does this).
	m           *mapping
	entriesBlob []byte
	entryOff    []uint32
	lazy        []atomic.Pointer[Entry]
	decodeErrs  atomic.Uint64
	closed      atomic.Bool
	allOnce     sync.Once
	all         []Entry
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

// LookupPrefix is Lookup at /24 granularity. For a file-backed snapshot
// the caller must hold an acquired mapping reference (Store lookups do).
func (s *Snapshot) LookupPrefix(p netsim.Prefix24) (*Entry, bool) {
	i := sort.Search(len(s.prefixes), func(i int) bool { return s.prefixes[i] >= p })
	if i < len(s.prefixes) && s.prefixes[i] == p {
		e := s.entryAt(i)
		return e, e != nil
	}
	return nil, false
}

// entryAt returns the i-th entry, decoding it from the mapped blob on
// first access for file-backed snapshots. A decode failure (a CRC-valid
// file from a buggy writer) is counted and reported as absent rather than
// poisoning the index.
func (s *Snapshot) entryAt(i int) *Entry {
	if s.m == nil {
		return &s.entries[i]
	}
	if e := s.lazy[i].Load(); e != nil {
		return e
	}
	e, err := decodeSnapEntry(s.entriesBlob[s.entryOff[i]:s.entryOff[i+1]], s.prefixes[i])
	if err != nil {
		s.decodeErrs.Add(1)
		return nil
	}
	if !s.lazy[i].CompareAndSwap(nil, e) {
		e = s.lazy[i].Load()
	}
	return e
}

// Mapped reports whether the snapshot serves from an mmap'd file, not
// from a heap copy of one (a Reloader's, or the fallback off unix) nor a
// heap build.
func (s *Snapshot) Mapped() bool { return s.m != nil && s.m.mapped }

// Pin takes a reader reference on a file-backed snapshot's mapping so
// raw-memory access (LookupPrefix, a first entry decode) stays valid
// against a concurrent Publish unmapping it. It reports false only when
// the mapping is already dead — the snapshot was replaced and its last
// reader finished — in which case the caller must reload the store's
// current snapshot. Heap-built snapshots (and nil) pin trivially.
// Unlike Store.Acquire, Pin/Unpin allocate nothing, so per-query hot
// loops can pin without a release closure.
func (s *Snapshot) Pin() bool {
	if s == nil || s.m == nil {
		return true
	}
	return s.m.acquire()
}

// Unpin releases a Pin. It is nil-safe and a no-op for heap-built
// snapshots, so callers may defer it unconditionally.
func (s *Snapshot) Unpin() {
	if s != nil && s.m != nil {
		s.m.release()
	}
}

// MappingRefs returns the live reference count of a file-backed
// snapshot's mapping (the owner reference counts as one until Close),
// and 0 for heap-built snapshots. Tests use it to assert hot-swapped
// mappings drain to zero.
func (s *Snapshot) MappingRefs() int64 {
	if s == nil || s.m == nil {
		return 0
	}
	return s.m.refs.Load()
}

// DecodeErrors counts lazy entry decodes that failed (0 on a healthy
// snapshot; non-zero only for a CRC-valid file with malformed entries).
func (s *Snapshot) DecodeErrors() uint64 { return s.decodeErrs.Load() }

// Close drops a file-backed snapshot's owner reference; the underlying
// file unmaps once the last concurrent reader releases it. Heap-built
// snapshots ignore Close. Store.Publish closes the snapshot it replaces,
// so explicit Closes are only needed for snapshots that never publish.
func (s *Snapshot) Close() error {
	if s.m != nil && !s.closed.Swap(true) {
		s.m.release()
	}
	return nil
}

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

// Len returns the number of indexed anycast /24s. prefixes rather than
// entries is counted because a file-backed snapshot has no entries slice.
func (s *Snapshot) Len() int { return len(s.prefixes) }

// ASes returns the number of distinct origin ASes.
func (s *Snapshot) ASes() int { return s.ases }

// TotalReplicas returns the summed conservative replica counts.
func (s *Snapshot) TotalReplicas() int { return s.totalReplicas }

// Entries exposes the indexed entries in prefix order. The slice is the
// snapshot's own storage: callers must treat it as read-only. On a
// file-backed snapshot the first call decodes every entry into a
// memoized heap slice (callers needing the full set pay the decode once;
// single-IP lookups never do) and must run under an acquired mapping
// reference, as Store.Acquire arranges.
func (s *Snapshot) Entries() []Entry {
	if s.m == nil {
		return s.entries
	}
	s.allOnce.Do(func() {
		out := make([]Entry, len(s.prefixes))
		for i := range out {
			if e := s.entryAt(i); e != nil {
				out[i] = *e
			} else {
				out[i] = Entry{Prefix: s.prefixes[i]}
			}
		}
		s.all = out
	})
	return s.all
}
