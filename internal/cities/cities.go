// Package cities provides the world-city database used as the side channel
// of the anycast geolocation step: the maximum-likelihood classifier of the
// paper reduces to "pick the most populated city inside the disk" (Sec. 2.1,
// accuracy ~75% in the authors' validation).
//
// The embedded database lists major world cities with coordinates and
// population. It intentionally includes pairs like Ashburn/Philadelphia that
// exercise the documented failure mode of the population bias (the paper's
// OpenDNS anecdote, Sec. 3.4).
package cities

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"anycastmap/internal/geo"
)

// City is one row of the database.
type City struct {
	Name       string
	CC         string // ISO 3166-1 alpha-2 country code
	Loc        geo.Coord
	Population int
}

func (c City) String() string {
	return fmt.Sprintf("%s,%s", c.Name, c.CC)
}

// Key returns the canonical "name,cc" identifier used to compare
// geolocation output against ground truth at city granularity.
func (c City) Key() string {
	return strings.ToLower(c.Name) + "," + strings.ToLower(c.CC)
}

// DB is an immutable set of cities ordered by decreasing population, which
// makes most-populated-in-disk queries an early-exit linear scan.
type DB struct {
	cities []City // sorted by decreasing population
	byKey  map[string]int
}

// New builds a database from the given list. The list is copied.
func New(list []City) *DB {
	cs := make([]City, len(list))
	copy(cs, list)
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Population > cs[j].Population })
	byKey := make(map[string]int, len(cs))
	for i, c := range cs {
		byKey[c.Key()] = i
	}
	return &DB{cities: cs, byKey: byKey}
}

// Default returns the database over the embedded world-city list (the
// primary list plus the secondary-city extension). A DB is immutable, so
// the table is built on the first call and every caller of the process
// shares it.
func Default() *DB { return defaultDB() }

var defaultDB = sync.OnceValue(func() *DB {
	all := make([]City, 0, len(worldCities)+len(moreCities))
	all = append(all, worldCities...)
	all = append(all, moreCities...)
	return New(all)
})

// Len returns the number of cities.
func (db *DB) Len() int { return len(db.cities) }

// All returns the cities in decreasing-population order. The returned slice
// must not be modified.
func (db *DB) All() []City { return db.cities }

// ByName looks a city up by name and country code (case-insensitive).
func (db *DB) ByName(name, cc string) (City, bool) {
	i, ok := db.byKey[strings.ToLower(name)+","+strings.ToLower(cc)]
	if !ok {
		return City{}, false
	}
	return db.cities[i], true
}

// MustByName is ByName that panics on a missing city; it is used when
// instantiating deployments from the paper's tables, where a miss is a
// programming error.
func (db *DB) MustByName(name, cc string) City {
	c, ok := db.ByName(name, cc)
	if !ok {
		panic(fmt.Sprintf("cities: %s,%s not in database", name, cc))
	}
	return c
}

// InDisk returns all cities inside the disk, in decreasing-population order.
func (db *DB) InDisk(d geo.Disk) []City {
	var out []City
	for _, c := range db.cities {
		if d.Contains(c.Loc) {
			out = append(out, c)
		}
	}
	return out
}

// LargestInDisk returns the most populated city inside the disk. This is the
// geolocation classifier of the paper: the population bias has sufficient
// discriminative power on its own.
func (db *DB) LargestInDisk(d geo.Disk) (City, bool) {
	for _, c := range db.cities {
		if d.Contains(c.Loc) {
			return c, true
		}
	}
	return City{}, false
}

// Countries returns the sorted set of country codes present.
func (db *DB) Countries() []string {
	set := make(map[string]bool)
	for _, c := range db.cities {
		set[c.CC] = true
	}
	out := make([]string, 0, len(set))
	for cc := range set {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// Filter returns a new DB containing only cities accepted by keep.
func (db *DB) Filter(keep func(City) bool) *DB {
	var out []City
	for _, c := range db.cities {
		if keep(c) {
			out = append(out, c)
		}
	}
	return New(out)
}
