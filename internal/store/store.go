package store

import (
	"sync/atomic"

	"anycastmap/internal/netsim"
)

// Options configures a Store. It has no fields left; it stays only
// because bench/ constructs stores with store.Options{}.
type Options struct{}

// Store publishes census snapshots to concurrent readers. The current
// snapshot hangs off an atomic pointer: lookups never take a lock on the
// index, and Publish swaps a fresh snapshot in one pointer store while
// in-flight readers keep the one they loaded.
type Store struct {
	snap    atomic.Pointer[Snapshot]
	version atomic.Uint64

	lookups atomic.Uint64
	swaps   atomic.Uint64
}

// New builds an empty store; it answers negatively until the first
// Publish.
func New(Options) *Store { return &Store{} }

// Publish stamps the snapshot with the next version and makes it the one
// every subsequent Lookup sees. It returns the assigned version. The
// snapshot must not be mutated after publishing. Readers still holding
// the snapshot it replaces keep using it; the GC reclaims it after them.
func (s *Store) Publish(snap *Snapshot) uint64 {
	v := s.version.Add(1)
	snap.version = v
	s.snap.Store(snap)
	s.swaps.Add(1)
	return v
}

// Current returns the live snapshot, or nil before the first Publish.
// A caller that reads it more than once uses the pointer it loaded, so
// it never mixes two versions.
func (s *Store) Current() *Snapshot { return s.snap.Load() }

// Ready reports whether a snapshot has been published.
func (s *Store) Ready() bool { return s.snap.Load() != nil }

// Answer is the result of classifying one IP.
type Answer struct {
	IP      netsim.IP
	Anycast bool
	// Entry is the deployment the IP's /24 belongs to; nil for unicast.
	Entry *Entry
	// Version is the snapshot version that produced the answer; 0 means
	// the store had no snapshot yet.
	Version uint64
}

// Lookup classifies one IP against the current snapshot. It is safe for
// any number of concurrent callers, including during a Publish.
func (s *Store) Lookup(ip netsim.IP) Answer {
	s.lookups.Add(1)
	snap := s.Current()
	if snap == nil {
		return Answer{IP: ip}
	}
	e, ok := snap.Lookup(ip)
	return Answer{IP: ip, Anycast: ok, Entry: e, Version: snap.version}
}

// LookupBatch classifies a batch against one consistent snapshot: every
// answer carries the same version even if a swap lands mid-batch.
func (s *Store) LookupBatch(ips []netsim.IP) []Answer {
	out := make([]Answer, len(ips))
	snap := s.Current()
	s.lookups.Add(uint64(len(ips)))
	if snap == nil {
		for i, ip := range ips {
			out[i] = Answer{IP: ip}
		}
		return out
	}
	for i, ip := range ips {
		e, ok := snap.Lookup(ip)
		out[i] = Answer{IP: ip, Anycast: ok, Entry: e, Version: snap.version}
	}
	return out
}

// Stats is a point-in-time copy of the store counters.
type Stats struct {
	Lookups uint64 `json:"lookups"`
	Swaps   uint64 `json:"snapshot_swaps"`
	Version uint64 `json:"snapshot_version"`
	// CacheHits and Misses are always zero: the store has no answer
	// cache. They stay only because bench/ reads them for
	// store.cache_hit_ratio.
	CacheHits uint64 `json:"-"`
	Misses    uint64 `json:"-"`
}

// Stats samples the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Lookups: s.lookups.Load(),
		Swaps:   s.swaps.Load(),
		Version: s.version.Load(),
	}
}
