package route

import "anycastmap/internal/netsim"

// Per-worker decision cache. Resolver traffic repeats client /24s
// heavily (a handful of recursive resolvers front most of a service's
// users), so the same (client, service, policy) question arrives over
// and over against the same snapshot version. The full decision —
// locate the client, score every instance, pick a replica — is a pure
// function of that tuple plus the snapshot version, which makes it
// safe to memoize: a direct-mapped cache keyed by the tuple and
// validated against the live version turns the hot path into one hash,
// one compare, and a struct copy, with zero coherence traffic because
// each worker owns its own cache inside its Scratch.
//
// A publish invalidates nothing eagerly: entries are revalidated by
// version on lookup, so the first query per slot after a snapshot swap
// recomputes and every answer still reads from exactly one version
// (the swap-under-load test's mixing invariant holds unchanged).

// decideCacheBits sizes the per-Scratch decision cache: 4096 entries
// (~650 KiB per worker) — big enough that a resolver population in the
// thousands mostly hits, small enough to stay resident per listener.
const decideCacheBits = 12

const decideCacheSize = 1 << decideCacheBits

type decideCacheEntry struct {
	key     uint64
	version uint64
	policy  Policy
	ans     Answer
}

// decideKey packs (client, service, prefer) into a nonzero key: both
// prefixes fit 24 bits and the policy 2, leaving bit 63 as the
// valid marker that distinguishes a real key from an empty slot.
func decideKey(client, service uint32, prefer Policy) uint64 {
	return 1<<63 | uint64(client&0xffffff)<<26 | uint64(service&0xffffff)<<2 | uint64(prefer)
}

// decideSlot maps a key to its direct-mapped slot (Fibonacci hashing:
// sequential client prefixes spread across the table instead of
// clustering in the low bits).
func decideSlot(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> (64 - decideCacheBits)
}

// DecideForCached is DecideFor through the scratch's per-worker
// decision cache. A hit — same client, service and preferred policy
// against the currently published snapshot version — returns the
// memoized answer without locating or scoring; a miss runs
// the full DecideFor and caches its result. Answers are byte-identical
// to the uncached path (pinned by TestDecideForCached) and the call
// still performs zero heap allocations.
func (e *Engine) DecideForCached(sc *Scratch, client, service netsim.Prefix24, prefer Policy) (Answer, Policy) {
	key := decideKey(uint32(client), uint32(service), prefer)
	ent := &sc.dcache[decideSlot(key)]
	if ent.key == key {
		// Version gates the hit: Current() is one atomic load, and the
		// version field is immutable after publish, so reading it is
		// safe even mid-swap.
		if snap := e.store.Current(); snap != nil && snap.Version() == ent.version {
			return ent.ans, ent.policy
		}
	}
	ans, policy := e.DecideFor(client, service, prefer)
	if ans.Version != 0 {
		ent.key = key
		ent.version = ans.Version
		ent.policy = policy
		ent.ans = ans
	}
	return ans, policy
}
