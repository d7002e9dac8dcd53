// Package hitlist builds and maintains the census target list, standing in
// for the USC/LANDER Internet addresses hitlist the paper relies on
// (Sec. 3.1): one representative IPv4 address per /24, annotated with a
// liveness score accumulated over past measurement campaigns. Entries whose
// /24 never showed an alive host carry a negative score and are pruned
// after the first census confirms them unreachable, shrinking the paper's
// target list from 10.6M to 6.6M per vantage point.
package hitlist

import (
	"cmp"
	"slices"

	"anycastmap/internal/detrand"
	"anycastmap/internal/netsim"
)

// Entry is one hitlist row.
type Entry struct {
	Prefix netsim.Prefix24
	IP     netsim.IP
	// Score is the liveness score: positive for addresses seen alive by
	// past campaigns, <= -2 for /24s where no alive host was ever
	// observed (the hitlist then contains an arbitrary address).
	Score int
}

// EverAlive reports whether the /24 has a positive liveness history.
func (e Entry) EverAlive() bool { return e.Score > 0 }

// Hitlist is an immutable target list sorted by prefix, one entry per /24:
// lookups binary-search it. Every constructor builds it in prefix order,
// FromWorld from the world's ordered /24s and the filters by keeping
// order, so nothing ever sorts it.
type Hitlist struct {
	entries []Entry
}

// FromWorld builds the full hitlist over every allocated /24 of the world.
// A tiny fraction of routed /24s (~0.01%, the paper's coverage gap in
// Sec. 3.1) has no representative and is skipped.
func FromWorld(w *netsim.World) *Hitlist {
	entries := make([]Entry, 0, w.NumPrefixes())
	seed := w.Config().Seed
	w.Prefixes(func(p netsim.Prefix24) {
		// Coverage gap: 99.99% of routed /24s have a representative.
		if detrand.UnitFloat(seed, uint64(p), 0x417) < 0.0001 {
			return
		}
		ip, everAlive := w.Representative(p)
		score := 0
		if everAlive {
			score = 5 + detrand.Intn(85, seed, uint64(p), 0x418)
		} else {
			score = -2 - detrand.Intn(3, seed, uint64(p), 0x419)
		}
		entries = append(entries, Entry{Prefix: p, IP: ip, Score: score})
	})
	return &Hitlist{entries: entries}
}

// find returns the index of the /24's entry.
func (h *Hitlist) find(p netsim.Prefix24) (int, bool) {
	return slices.BinarySearchFunc(h.entries, p, func(e Entry, p netsim.Prefix24) int { return cmp.Compare(e.Prefix, p) })
}

// Len returns the number of entries.
func (h *Hitlist) Len() int { return len(h.entries) }

// Entries returns the entries ordered by prefix. The slice must not be
// modified.
func (h *Hitlist) Entries() []Entry { return h.entries }

// Targets returns the probe targets in prefix order.
func (h *Hitlist) Targets() []netsim.IP {
	out := make([]netsim.IP, len(h.entries))
	for i, e := range h.entries {
		out[i] = e.IP
	}
	return out
}

// Lookup returns the entry for a target address.
func (h *Hitlist) Lookup(ip netsim.IP) (Entry, bool) {
	i, ok := h.find(ip.Prefix())
	if !ok || h.entries[i].IP != ip {
		return Entry{}, false
	}
	return h.entries[i], true
}

// Covers reports whether the hitlist has a representative for the prefix.
func (h *Hitlist) Covers(p netsim.Prefix24) bool {
	_, ok := h.find(p)
	return ok
}

// PruneNeverAlive drops the negative-score entries after the first census
// confirmed them unreachable (Sec. 3.1: 10.6M -> 6.6M targets per VP).
func (h *Hitlist) PruneNeverAlive() *Hitlist {
	var kept []Entry
	for _, e := range h.entries {
		if e.EverAlive() {
			kept = append(kept, e)
		}
	}
	return &Hitlist{entries: kept}
}

// Without returns a hitlist with the blacklisted targets removed (the
// greylist/blacklist mechanism of Sec. 3.3).
func (h *Hitlist) Without(blacklist map[netsim.IP]bool) *Hitlist {
	if len(blacklist) == 0 {
		return h
	}
	var kept []Entry
	for _, e := range h.entries {
		if !blacklist[e.IP] {
			kept = append(kept, e)
		}
	}
	return &Hitlist{entries: kept}
}
