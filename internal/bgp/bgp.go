// Package bgp stands in for the RIPE RIS / RouteViews routing-table dumps
// of Sec. 3.1: the set of announced prefixes, their origin ASes, and the
// /24 split used to cross-check hitlist coverage. It also records the
// announced prefix length of each /24, reproducing the observation (paper
// [35]) that anycast announcements are dominated by /24s - BGP practice
// filters anything longer, which is what makes /24 the natural census
// granularity.
package bgp

import (
	"cmp"
	"slices"

	"anycastmap/internal/detrand"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
)

// Route is the routing information for one /24 of the split table.
type Route struct {
	Prefix netsim.Prefix24
	// OriginASN is the AS originating the covering announcement.
	OriginASN int
	// AnnouncedLen is the mask length of the covering announcement
	// (<= 24); 24 means the /24 is announced as-is, smaller values mean
	// it is covered by an aggregate and only probed /24 by /24.
	AnnouncedLen int
}

// Table is the /24-split view of the global routing table, in prefix
// order: lookups binary-search it.
type Table struct {
	routes []Route
}

// FromWorld derives the routing table from the world's ground truth:
// every allocated /24 is routed; 88% of anycast /24s are announced exactly
// as /24s and the rest sit inside short aggregates; the unicast background
// is a mix of announcement sizes.
func FromWorld(w *netsim.World) *Table {
	seed := w.Config().Seed
	routes := make([]Route, 0, w.NumPrefixes())
	w.Prefixes(func(p netsim.Prefix24) {
		asn, ok := w.ASNOf(p)
		if !ok {
			return
		}
		length := 24
		u := detrand.UnitFloat(seed, uint64(p), 0xB69B)
		if w.IsAnycast(p) {
			// Paper [35]: 88% of anycast announcements are /24.
			if u > 0.88 {
				length = 22 + detrand.Intn(2, seed, uint64(p), 0xB69C)
			}
		} else {
			// The unicast table is about half /24s, half aggregates.
			if u > 0.5 {
				length = 16 + detrand.Intn(8, seed, uint64(p), 0xB69D)
			}
		}
		routes = append(routes, Route{Prefix: p, OriginASN: asn, AnnouncedLen: length})
	})
	return &Table{routes: routes}
}

// find returns the index of the /24's route.
func (t *Table) find(p netsim.Prefix24) (int, bool) {
	return slices.BinarySearchFunc(t.routes, p, func(r Route, p netsim.Prefix24) int { return cmp.Compare(r.Prefix, p) })
}

// Len returns the number of routed /24s after splitting.
func (t *Table) Len() int { return len(t.routes) }

// Routes returns the split routes. The slice must not be modified.
func (t *Table) Routes() []Route { return t.routes }

// OriginAS maps a /24 to its origin AS (the a-posteriori mapping of
// Sec. 3.1 used to attribute census findings to ASes).
func (t *Table) OriginAS(p netsim.Prefix24) (int, bool) {
	i, ok := t.find(p)
	if !ok {
		return 0, false
	}
	return t.routes[i].OriginASN, true
}

// Routed reports whether the /24 appears in the table.
func (t *Table) Routed(p netsim.Prefix24) bool {
	_, ok := t.find(p)
	return ok
}

// FractionSlash24 returns the fraction of the given /24s whose covering
// announcement is exactly a /24.
func (t *Table) FractionSlash24(prefixes []netsim.Prefix24) float64 {
	if len(prefixes) == 0 {
		return 0
	}
	n := 0
	for _, p := range prefixes {
		if i, ok := t.find(p); ok && t.routes[i].AnnouncedLen == 24 {
			n++
		}
	}
	return float64(n) / float64(len(prefixes))
}

// Coverage cross-checks the hitlist against the routed /24s (Sec. 3.1:
// 10,615,563 of 10,616,435 routed /24s have a hitlist representative,
// 99.99%). It returns the number of covered /24s and the table size.
func Coverage(t *Table, h *hitlist.Hitlist) (covered, total int) {
	for _, r := range t.routes {
		if h.Covers(r.Prefix) {
			covered++
		}
	}
	return covered, t.Len()
}
