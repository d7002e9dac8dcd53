// Package netsim is the synthetic Internet the census runs against. It
// replaces the physical measurement substrate of the paper (the IPv4
// address space, BGP routing, CDN deployments, PlanetLab's network paths)
// with a deterministic model that preserves everything the measurement and
// analysis pipeline can observe: which /24s respond to which protocol, with
// which latency, from which vantage point, and which ICMP errors come back.
//
// The anycast inventory is instantiated at the paper's cardinality (346
// ASes, 1,696 anycast /24s, Fig. 10) from the asdb registry; the unicast
// background is scaled by Config.Unicast24s (default 1:100 of the paper's
// 6.6M responsive targets). Everything is a pure function of Config.Seed.
package netsim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"anycastmap/internal/asdb"
	"anycastmap/internal/cities"
	"anycastmap/internal/detrand"
	"anycastmap/internal/geo"
	"anycastmap/internal/lfsr"
	"anycastmap/internal/services"
)

// Config parametrizes the synthetic Internet.
type Config struct {
	// Seed drives every random choice in the world; two worlds with the
	// same config are identical.
	Seed uint64

	// Epoch advances the anycast landscape in time (the Sec. 5
	// "longitudinal view" extension): deployments keep their prefixes
	// and most of their replica sets, but footprints drift - mostly
	// growth - between epochs. Epoch 0 is the March 2015 landscape.
	Epoch uint64

	// Unicast24s is the number of unicast /24s in the hitlist-covered
	// space. The paper probes 6.6M targets; the default 66,000 is a
	// 1:100 scale documented in DESIGN.md.
	Unicast24s int

	// DeploymentInflation scales the paper's *measured* per-AS replica
	// counts up to the *true* deployment sizes, since measurement from
	// ~300 VPs is a conservative lower bound (Sec. 4.1).
	DeploymentInflation float64

	// ResponsiveFraction is the fraction of unicast hitlist targets that
	// answer ICMP echo, relative to the FULL hitlist space (Fig. 4:
	// fewer than half of the initial hitlist reply; the paper's 4.4M
	// responsive of 10.6M routed /24s is 41.5%).
	ResponsiveFraction float64

	// AdminFilteredFraction, HostProhibitedFraction and
	// NetProhibitedFraction produce the ICMP error population that feeds
	// the greylist (Sec. 3.3: ~98.5% type-3 code-13, 1.3% code 10,
	// 0.2% code 9).
	AdminFilteredFraction  float64
	HostProhibitedFraction float64
	NetProhibitedFraction  float64

	// StretchBase and StretchExtra shape the path-stretch distribution:
	// an Internet path is StretchBase + Exp(mean StretchExtra) times
	// longer than the great circle.
	StretchBase  float64
	StretchExtra float64

	// AccessMs bounds the per-endpoint access latency (last mile, server
	// processing) and JitterMs the per-probe queueing noise.
	AccessMs float64
	JitterMs float64
}

// DefaultConfig returns the configuration used throughout the benchmarks.
func DefaultConfig() Config {
	return Config{
		Seed:                   2015,
		Unicast24s:             66000,
		DeploymentInflation:    1.0,
		ResponsiveFraction:     0.415,
		AdminFilteredFraction:  0.0143,
		HostProhibitedFraction: 0.00019,
		NetProhibitedFraction:  0.00003,
		StretchBase:            1.10,
		StretchExtra:           0.18,
		AccessMs:               1.2,
		JitterMs:               2.5,
	}
}

// Replica is one instance of an anycast deployment: a server (or site) in a
// city announcing the shared prefix.
type Replica struct {
	ID   int
	City cities.City
	Loc  geo.Coord
}

// Deployment is one anycast /24: a prefix announced from several locations.
type Deployment struct {
	Prefix   Prefix24
	ASN      int
	Replicas []Replica
	// Density is the fraction of /32 addresses alive inside the /24
	// (Sec. 4.2: from Google's lone 8.8.8.8 to CloudFlare's >99%).
	Density float64
	// HostsAlexa marks /24s that serve at least one Alexa top-100k
	// website (Sec. 4.1: 242 such /24s across 15 ASes). The mapping is
	// public data (DNS resolution of the Alexa list), so the analysis
	// pipeline may read it.
	HostsAlexa bool

	// idx is this deployment's position in World.deployments (and in
	// World.geom and the per-VP session caches); rep is the precomputed
	// hitlist representative. Both are set by New.
	idx int32
	rep IP
}

func (d *Deployment) String() string {
	return fmt.Sprintf("%v AS%d %d replicas", d.Prefix, d.ASN, len(d.Replicas))
}

// Cities returns the sorted distinct city keys of the deployment.
func (d *Deployment) Cities() []string {
	set := map[string]bool{}
	for _, r := range d.Replicas {
		set[r.City.Key()] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// hostClass is the ICMP behaviour of a unicast representative.
type hostClass uint8

const (
	classResponsive hostClass = iota
	classSilent
	classAdminFiltered  // ICMP type 3 code 13
	classHostProhibited // code 10
	classNetProhibited  // code 9
)

// answers reports whether a host of the class replies to probes at all:
// every class but classSilent does, with an echo or an ICMP error.
func (c hostClass) answers() bool { return c != classSilent }

// unicastHost is the representative host of a unicast /24, 12 bytes. rep
// and everAlive are precomputed at build time so the probe hot path never
// re-derives them. Only a host whose class answers has a position, and
// only a reply's RTT reads it: site indexes World.hostSites for such a
// host and is 0, read by nothing, for a silent one.
type unicastHost struct {
	rep       IP
	site      int32
	class     hostClass
	everAlive bool
}

// hostSite is where an answering unicast host sits: its location and
// geo.Prepare(loc).CosLat(), which the span resolver's haversine reads.
type hostSite struct {
	loc    geo.Coord
	cosLat float64
}

// World is the synthetic Internet.
type World struct {
	cfg Config
	// seedSt is detrand.Begin(cfg.Seed): the prefix of the draws that
	// depend on no vantage point (the endpoint's access term, 0xB72).
	seedSt   detrand.State
	Registry *asdb.Registry
	Cities   *cities.DB
	Services *services.Inventory

	deployments []*Deployment
	unicast     []unicastHost
	hostSites   []hostSite // the answering unicast hosts' positions, in unicast order

	// Replica geometry, the vantage-point-independent half of ranking a
	// deployment's replicas, flat and pointer-free so neither the ranking
	// (rank) nor a base build (servedBaseMs) touches a *Deployment or a
	// Replica. places holds every distinct replica location of the world,
	// prepared: one slot per (AS, replica), shared by all /24s of the AS;
	// placeVecs[slot] is the same location's unit vector, which rank
	// orders places by. rankGroups holds the distinct replica lists;
	// deployments announcing the same list rank the same from any vantage
	// point. geom[i] is deployments[i]'s
	// record and endAccess the endpoint halves of the access latency
	// (endpointAccessMs) of every deployment's replicas, back to back.
	places     []geo.Point
	placeVecs  [][3]float64
	rankGroups []rankGroup
	geom       []deploymentGeom
	endAccess  []float64

	// slots indexes every allocated /24 by its slot, p - basePrefix (the
	// world is one contiguous run of /24s): values >= 0 index
	// deployments, values < 0 encode -(unicastIndex+1). Unicast indexes
	// ascend with the slot. See lookup.
	slots        []int32
	anycastByASN map[int][]*Deployment
	dcPool       []poolCity

	// hijacks holds injected BGP hijacks (Sec. 5 extension); see
	// InjectHijack.
	hijacks map[Prefix24]hijack

	// faults is the installed failure schedule; nil means a perfectly
	// healthy substrate. See WithFaults.
	faults *FaultPlan

	// sessions caches per-VP probe-invariant state (see session.go). It
	// sits behind a pointer so WithFaults views share one table.
	sessions *sessionTable
}

// rankGroup is one distinct replica list of the world.
type rankGroup struct {
	slots []int32 // the list's places, in Replicas order
	first int32   // the first deployment announcing it, whose Replicas every later one shares
}

// deploymentGeom is what the session cache reads of one deployment.
type deploymentGeom struct {
	prefix uint64 // uint64(Deployment.Prefix), the endpoint key of its draws
	group  int32  // its rank group
	// placeBase is the first place of the deployment's AS: the replica at
	// places[slot] has Replica.ID slot - placeBase.
	placeBase int32
	access    int32 // endAccess[access+i] belongs to Replicas[i]
}

// hijack describes one injected prefix hijack.
type hijack struct {
	loc       geo.Coord
	catchment float64
}

type poolCity struct {
	city cities.City
	pt   geo.Point // city.Loc, prepared
	w    float64
}

// basePrefix is the /24 index of 1.0.0.0/24: all prefixes of the world are
// allocated upward from here.
const basePrefix = Prefix24(1 << 16)

// maxUnicast24s bounds Unicast24s so the world (anycast footprint
// included) stays below the multicast boundary: 224.0.0.0/24 is /24 index
// 14,680,064, and allocation starts at basePrefix (65,536). The paper's
// full 10.6M announced /24s fit with room to spare.
const maxUnicast24s = 14_600_000

// Validate reports the first problem with the configuration, or nil. A
// NaN or infinite parameter is refused: every bound is written so that
// NaN fails it.
func (c Config) Validate() error {
	finite := func(v float64) bool { return v >= -math.MaxFloat64 && v <= math.MaxFloat64 }
	switch {
	case c.Unicast24s <= 0:
		return fmt.Errorf("netsim: Unicast24s must be positive, got %d", c.Unicast24s)
	case c.Unicast24s > maxUnicast24s:
		return fmt.Errorf("netsim: Unicast24s %d exceeds the %d address budget", c.Unicast24s, maxUnicast24s)
	case !finite(c.DeploymentInflation):
		return fmt.Errorf("netsim: DeploymentInflation %v not finite", c.DeploymentInflation)
	case !(c.ResponsiveFraction >= 0 && c.ResponsiveFraction <= 1):
		return fmt.Errorf("netsim: ResponsiveFraction %v outside [0,1]", c.ResponsiveFraction)
	case !(min(c.AdminFilteredFraction, c.HostProhibitedFraction, c.NetProhibitedFraction) >= 0 &&
		c.ResponsiveFraction+c.AdminFilteredFraction+c.HostProhibitedFraction+c.NetProhibitedFraction <= 1):
		return fmt.Errorf("netsim: reply-class fractions negative or exceeding 1")
	case !(c.StretchBase >= 1 && finite(c.StretchBase)):
		return fmt.Errorf("netsim: StretchBase %v below 1 or infinite would break the speed-of-light invariant", c.StretchBase)
	case !(min(c.StretchExtra, c.AccessMs, c.JitterMs) >= 0 && finite(c.StretchExtra+c.AccessMs+c.JitterMs)):
		return fmt.Errorf("netsim: noise parameter negative, NaN or infinite")
	}
	return nil
}

// New builds a world. Construction is deterministic and takes O(prefixes).
// It panics on an invalid configuration; use Config.Validate to check
// first.
func New(cfg Config) *World {
	if cfg.DeploymentInflation <= 0 {
		cfg.DeploymentInflation = 1
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	w := &World{
		cfg:          cfg,
		seedSt:       detrand.Begin(cfg.Seed),
		Registry:     asdb.Default(),
		Cities:       cities.Default(),
		anycastByASN: make(map[int][]*Deployment),
		dcPool:       placementPool(),
		// Allocated here, not on first injection: WithFaults views copy
		// the World by value and must share the map, as they share sessions.
		hijacks:  make(map[Prefix24]hijack),
		sessions: newSessionTable(),
	}
	w.Services = services.Build(w.Registry, cfg.Seed)

	totalAnycast := w.Registry.TotalFootprint()
	total := totalAnycast + cfg.Unicast24s

	// Scatter the anycast /24s through the whole allocated space using an
	// LFSR permutation: the proverbial needles in the haystack.
	perm, err := lfsr.NewPermutation(uint64(total), cfg.Seed|1)
	if err != nil {
		panic(fmt.Sprintf("netsim: %v", err))
	}
	anycastSlots := make([]uint64, 0, totalAnycast)
	for len(anycastSlots) < totalAnycast {
		v, ok := perm.Next()
		if !ok {
			panic("netsim: permutation exhausted early")
		}
		anycastSlots = append(anycastSlots, v)
	}
	w.slots = make([]int32, total)

	// Instantiate deployments AS by AS, in registry order, from one slab.
	// An AS's deployments are consecutive in w.deployments, and
	// anycastByASN holds each AS's run of them.
	slab := make([]Deployment, totalAnycast)
	w.deployments = make([]*Deployment, 0, totalAnycast)
	w.geom = make([]deploymentGeom, 0, totalAnycast)
	slotCursor := 0
	groupOf := make(map[string]int32, totalAnycast) // replica list, as place-slot bytes -> rank group
	var groupKey []byte                             // indexReplicas' key scratch
	var subset []Replica                            // prefixReplicaSubset's scratch
	draw := replicaDraw{anchorKm: make([][]float64, len(w.dcPool))}
	for _, as := range w.Registry.All() {
		asReplicas := w.buildASReplicaSet(as, &draw)
		// Replica i of the AS (Replica.ID == i) is place placeBase+i.
		placeBase := len(w.places)
		for _, r := range asReplicas {
			w.places = append(w.places, geo.Prepare(r.Loc))
			w.placeVecs = append(w.placeVecs, geo.UnitVec(r.Loc))
		}
		_, pinned := pinnedFootprints[as.Name]
		first := len(w.deployments)
		for p := 0; p < as.IP24s; p++ {
			prefix := basePrefix + Prefix24(anycastSlots[slotCursor])
			slotCursor++
			// Every per-prefix draw starts from the prefix's state:
			// w.seedSt.With(prefix) is detrand.Begin(cfg.Seed, prefix).
			pSt := w.seedSt.With(uint64(prefix))
			replicas := asReplicas
			if !pinned {
				subset = prefixReplicaSubset(subset, asReplicas, pSt)
				replicas = subset
			}
			d := &slab[len(w.deployments)]
			*d = Deployment{
				Prefix:     prefix,
				ASN:        as.ASN,
				Replicas:   replicas,
				Density:    density(as, pSt),
				HostsAlexa: p < as.AlexaIP24s,
				idx:        int32(len(w.deployments)),
				// Anycast infrastructure: a low, alive host address.
				rep: prefix.Host(byte(1 + pSt.With(0x4E01).Intn(32))),
			}
			w.indexReplicas(d, placeBase, groupOf, &groupKey)
			w.slots[prefix-basePrefix] = d.idx
			w.deployments = append(w.deployments, d)
		}
		if as.IP24s > 0 {
			w.anycastByASN[as.ASN] = w.deployments[first:len(w.deployments):len(w.deployments)]
		}
	}

	// Fill the remaining slots with unicast representatives, walking the
	// anycast slots in order beside them.
	slices.Sort(anycastSlots)
	w.unicast = make([]unicastHost, 0, cfg.Unicast24s)
	// Sized to the answering share's mean plus four standard deviations,
	// so the slab is seldom grown and never holds much spare capacity.
	answering := float64(cfg.Unicast24s) * (cfg.ResponsiveFraction + cfg.AdminFilteredFraction + cfg.HostProhibitedFraction + cfg.NetProhibitedFraction)
	w.hostSites = make([]hostSite, 0, int(answering+4*math.Sqrt(answering))+16)
	hc := hostCities()
	next := 0 // anycastSlots[next] is the first anycast slot not passed
	for slot := range w.slots {
		if next < len(anycastSlots) && anycastSlots[next] == uint64(slot) {
			next++
			continue
		}
		w.slots[slot] = int32(-(len(w.unicast) + 1))
		w.unicast = append(w.unicast, w.buildUnicastHost(basePrefix+Prefix24(slot), hc))
	}
	return w
}

// lookup returns the slots entry of the /24, with ok false for a prefix
// outside the world. Below basePrefix the subtraction wraps past every
// slot.
func (w *World) lookup(p Prefix24) (i int32, ok bool) {
	slot := uint32(p - basePrefix)
	if uint(slot) >= uint(len(w.slots)) {
		return 0, false
	}
	return w.slots[slot], true
}

// indexReplicas ties a new deployment of the AS whose replicas start at
// places[placeBase] into the world's replica geometry: its flat record, its
// rank group and the endpoint access halves. d.Replicas may be storage the
// caller reuses: a deployment announcing a replica list groupOf knows
// already joins that list's rank group and shares the group's Replicas
// slice (Deployments forbids modifying it), and one announcing a new list
// opens a group with a copy of its own. key is the caller's scratch for
// the list's lookup key, reused across deployments, so only a new group
// allocates.
func (w *World) indexReplicas(d *Deployment, placeBase int, groupOf map[string]int32, key *[]byte) {
	g := deploymentGeom{
		prefix:    uint64(d.Prefix),
		placeBase: index32(placeBase, "deploymentGeom.placeBase"),
		access:    index32(len(w.endAccess), "deploymentGeom.access"),
	}
	k := (*key)[:0]
	for _, r := range d.Replicas {
		k = binary.LittleEndian.AppendUint32(k, uint32(index32(placeBase+r.ID, "rankGroup.slots")))
		w.endAccess = append(w.endAccess, w.endpointAccessMs(g.prefix, uint64(r.ID)))
	}
	*key = k
	group, ok := groupOf[string(k)]
	if ok {
		d.Replicas = w.deployments[w.rankGroups[group].first].Replicas
	} else {
		d.Replicas = slices.Clone(d.Replicas)
		slots := make([]int32, len(d.Replicas))
		for i, r := range d.Replicas {
			slots[i] = int32(placeBase + r.ID)
		}
		group = index32(len(w.rankGroups), "deploymentGeom.group")
		groupOf[string(k)] = group
		w.rankGroups = append(w.rankGroups, rankGroup{slots: slots, first: d.idx})
	}
	g.group = group
	w.geom = append(w.geom, g)
}

// index32 narrows a table index to the int32 the replica geometry stores,
// panicking by name where the conversion would wrap silently.
func index32(i int, field string) int32 {
	if i > math.MaxInt32 {
		panic(fmt.Sprintf("netsim: index %d does not fit %s (int32)", i, field))
	}
	return int32(i)
}

// Config returns the world configuration.
func (w *World) Config() Config { return w.cfg }

// WithFaults returns a shallow view of the world with the fault plan
// installed. The view shares every index with the receiver (worlds are
// immutable once built), so it is cheap and safe to probe the original and
// the view concurrently.
func (w *World) WithFaults(p *FaultPlan) *World {
	w2 := *w
	w2.faults = p
	return &w2
}

// Faults returns the installed fault plan, nil when the substrate is
// healthy.
func (w *World) Faults() *FaultPlan { return w.faults }

// Deployments returns every anycast deployment. The slice must not be
// modified.
func (w *World) Deployments() []*Deployment { return w.deployments }

// DeploymentsByASN returns the deployments of one AS.
func (w *World) DeploymentsByASN(asn int) []*Deployment { return w.anycastByASN[asn] }

// Deployment returns the deployment owning the prefix, if any.
func (w *World) Deployment(p Prefix24) (*Deployment, bool) {
	i, ok := w.lookup(p)
	if !ok || i < 0 {
		return nil, false
	}
	return w.deployments[i], true
}

// IsAnycast reports the ground truth for a prefix. Only validation and
// ground-truth collection may use it; the measurement pipeline must not.
func (w *World) IsAnycast(p Prefix24) bool {
	_, ok := w.Deployment(p)
	return ok
}

// ASNOf returns the AS announcing the prefix (ground truth used by the BGP
// table substitute).
func (w *World) ASNOf(p Prefix24) (int, bool) {
	i, ok := w.lookup(p)
	if !ok {
		return 0, false
	}
	if i >= 0 {
		return w.deployments[i].ASN, true
	}
	// Unicast prefixes get a synthetic origin AS derived from their slot.
	return 100000 + int(uint32(p)%30000), true
}

// NumPrefixes returns the number of allocated /24s (anycast + unicast).
func (w *World) NumPrefixes() int { return len(w.deployments) + len(w.unicast) }

// Prefixes calls fn for every allocated /24 in increasing order.
func (w *World) Prefixes(fn func(Prefix24)) {
	for slot := range w.slots {
		fn(basePrefix + Prefix24(slot))
	}
}

// Representative returns the hitlist representative address for a prefix
// and whether any host in the /24 has ever been seen alive (targets with no
// alive host carry a negative hitlist score, Sec. 3.1).
func (w *World) Representative(p Prefix24) (IP, bool) {
	i, ok := w.lookup(p)
	if !ok {
		return 0, false
	}
	if i >= 0 {
		return w.deployments[i].rep, true
	}
	h := &w.unicast[-(i + 1)]
	return h.rep, h.everAlive
}

// HostAlive reports whether a specific /32 inside an anycast /24 answers
// probes, according to the deployment density (used by the Sec. 3.1
// spot-check that any alive IP of a /24 is equivalent).
func (w *World) HostAlive(ip IP) bool {
	i, ok := w.lookup(ip.Prefix())
	if !ok {
		return false
	}
	if i < 0 {
		h := &w.unicast[-(i + 1)]
		return h.everAlive && h.rep == ip
	}
	d := w.deployments[i]
	if ip == d.rep {
		return true // the hitlist representative is alive by construction
	}
	return detrand.UnitFloat(w.cfg.Seed, uint64(ip), 0xA11E) < d.Density
}

// placementPool is the datacenter-city pool replicas are placed in, over
// the shared city table (cities.Default) with each city's location
// prepared: the classic interconnection hubs get the highest weights. It
// depends on nothing but the embedded tables, so it is built once per
// process.
var placementPool = sync.OnceValue(func() []poolCity {
	db := cities.Default()
	pool := make([]poolCity, len(dcPool))
	for i, e := range dcPool {
		c := db.MustByName(e.name, e.cc)
		pool[i] = poolCity{city: c, pt: geo.Prepare(c.Loc), w: e.w}
	}
	return pool
})

// hostCityTable is what placing a unicast host reads of the shared city
// table (cities.Default): each city's population-cumulative weight, for
// population-proportional sampling, and its location prepared as a
// Destination origin.
type hostCityTable struct {
	cum     []float64
	origins []geo.Origin
}

// hostCities is the unicast placement table. It depends on nothing but
// the embedded city list, so, like placementPool, it is built once per
// process.
var hostCities = sync.OnceValue(func() *hostCityTable {
	all := cities.Default().All()
	t := &hostCityTable{cum: make([]float64, len(all)), origins: make([]geo.Origin, len(all))}
	sum := 0.0
	for i, c := range all {
		sum += float64(c.Population)
		t.cum[i] = sum
		t.origins[i] = geo.PrepareOrigin(c.Loc)
	}
	return t
})

// replicaDraw is buildASReplicaSet's scratch, reused from AS to AS.
// anchorKm[a] is pool city a's row of distances to every pool city,
// computed the first time an AS anchors there and shared by every later
// one.
type replicaDraw struct {
	anchorKm   [][]float64
	cands, top []replicaCand
	replicas   []Replica
}

// replicaCand is a pool city with its Efraimidis-Spirakis key.
type replicaCand struct {
	idx int
	key float64
}

// buildASReplicaSet chooses the true replica cities of an AS: the paper's
// measured mean footprint inflated to deployment truth, sampled from the
// datacenter pool with hub bias. Small operators outside the top-100
// (country-code registries, national clouds) often deploy regionally: about
// 70% of tail ASes keep every replica within ~800 km of an anchor hub,
// which makes them borderline for speed-of-light detection - the population
// behind Fig. 12's two-replica tail and the recall gained by combining
// censuses. The returned replicas live in draw's storage, valid until the
// next call.
func (w *World) buildASReplicaSet(as asdb.AS, draw *replicaDraw) []Replica {
	// Every per-AS draw starts from the AS's state, and a replica's from
	// its index's: asSt.With(i) is detrand.Begin(cfg.Seed, ASN, i).
	asSt := w.seedSt.With(uint64(as.ASN))
	replicas := draw.replicas[:0]
	place := func(city cities.City, i int) {
		st := asSt.With(uint64(i))
		bearing := 360 * st.With(0x9002).Unit()
		dist := 12 * st.With(0x9003).Unit()
		replicas = append(replicas, Replica{ID: i, City: city, Loc: geo.Destination(city.Loc, bearing, dist)})
	}
	if pinned, ok := pinnedFootprints[as.Name]; ok {
		for i, nc := range pinned {
			place(w.Cities.MustByName(nc[0], nc[1]), i)
		}
		draw.replicas = replicas
		return replicas
	}
	n := int(math.Round(float64(as.PaperMeanReplicas) * w.cfg.DeploymentInflation))
	// Longitudinal drift: deployments mostly grow over epochs (the paper
	// observed "small but interesting changes" between later censuses),
	// with the occasional shrink. Candidates are ranked stably, so a
	// grown deployment keeps its old sites and adds the next-best ones.
	if w.cfg.Epoch > 0 {
		growth := int(float64(n) * 0.05 * float64(w.cfg.Epoch))
		swing := detrand.Intn(4, w.cfg.Seed, uint64(as.ASN), w.cfg.Epoch, 0x9020) - 1 // -1..2
		n += growth + swing
	}
	if n < 2 {
		n = 2
	}

	regional := !as.Top100 && detrand.UnitFloat(w.cfg.Seed, uint64(as.ASN), 0x9010) < 0.7
	var anchorDist []float64 // anchorDist[i]: the anchor hub's distance to dcPool[i]
	if regional {
		a := detrand.Intn(len(w.dcPool), w.cfg.Seed, uint64(as.ASN), 0x9011)
		if draw.anchorKm[a] == nil {
			row := make([]float64, len(w.dcPool))
			for i, pc := range w.dcPool {
				row[i] = geo.PointDistanceKm(w.dcPool[a].pt, pc.pt)
			}
			draw.anchorKm[a] = row
		}
		anchorDist = draw.anchorKm[a]
	}

	// Weighted sampling without replacement, deterministic per AS.
	build := func(regionOnly bool) []replicaCand {
		out := draw.cands[:0]
		for i, pc := range w.dcPool {
			if regionOnly && anchorDist[i] > 800 {
				continue
			}
			// Efraimidis-Spirakis weighted reservoir keys.
			u := asSt.With(uint64(i)).With(0x9001).Unit()
			if u <= 0 {
				u = 1e-12
			}
			out = append(out, replicaCand{idx: i, key: math.Pow(u, 1/pc.w)})
		}
		draw.cands = out
		return out
	}
	cands := build(regional)
	if len(cands) < 2 {
		// The anchor region is too sparse to host an anycast deployment;
		// fall back to a global spread.
		cands = build(false)
	}
	draw.top = topCands(draw.top[:0], cands, n)
	for i, c := range draw.top {
		place(w.dcPool[c.idx].city, i)
	}
	draw.replicas = replicas
	return replicas
}

// topCands appends to dst the min(n, len(cands)) candidates of largest
// key, largest first: exactly the first n of cands after
// slices.SortFunc(cands, by key descending), which fixes every world's
// replica sets. A candidate below the n kept so far costs one comparison.
// In the default world n is 2 to 5 for three ASes in four (33 at most)
// against 92 candidates for most, and the selection takes ~2 ms off a
// ~9.5 ms catalogue build that sorted every candidate list. The
// sort orders keys, not candidates: where two equal keys meet among the
// kept ones, only the sort knows which comes first, so topCands then
// sorts cands after all. Keys are never NaN (u in (0, 1], weights
// positive).
func topCands(dst, cands []replicaCand, n int) []replicaCand {
	n = min(n, len(cands))
	if n <= 0 {
		return dst
	}
	top := dst
	for _, c := range cands {
		if len(top) == n {
			if c.key < top[n-1].key {
				continue
			}
			if c.key == top[n-1].key {
				return sortedTop(dst, cands, n)
			}
			top = top[:n-1]
		}
		j := len(top)
		top = append(top, c)
		for ; j > 0 && top[j-1].key < c.key; j-- {
			top[j] = top[j-1]
		}
		if j > 0 && top[j-1].key == c.key {
			return sortedTop(dst, cands, n)
		}
		top[j] = c
	}
	return top
}

// sortedTop is topCands by a full sort: it reorders cands.
func sortedTop(dst, cands []replicaCand, n int) []replicaCand {
	slices.SortFunc(cands, func(a, b replicaCand) int { return cmp.Compare(b.key, a.key) })
	return append(dst[:0], cands[:n]...)
}

// prefixReplicaSubset selects the replicas announcing one specific /24 of
// the AS, into buf's storage: most prefixes are served from the full AS
// footprint, with a little per-prefix variation (the paper reports small
// standard deviations across /24s of the same AS, Fig. 9). pSt is the
// prefix's state, detrand.Begin(cfg.Seed, prefix).
func prefixReplicaSubset(buf, asReplicas []Replica, pSt detrand.State) []Replica {
	out := buf[:0]
	for i, r := range asReplicas {
		if pSt.With(uint64(i)).With(0x9004).Unit() < 0.9 {
			out = append(out, r)
		}
	}
	if len(out) < 2 {
		out = append(out[:0], asReplicas[0], asReplicas[1])
	}
	return out
}

// density draws the alive-host density of a /24 (Sec. 4.2: Google's DNS
// /24s are nearly empty, CloudFlare's nearly full) from the prefix's state.
func density(as asdb.AS, pSt detrand.State) float64 {
	switch as.Name {
	case "CLOUDFLARENET,US":
		return 0.995
	case "GOOGLE,US":
		return 0.008 // 8.8.8.8-style: one or two alive addresses
	}
	return 0.1 + 0.8*pSt.With(0x9005).Unit()
}

// buildUnicastHost draws the ICMP behaviour class of a unicast /24's
// representative and, for a class that answers, places it (placeHost),
// appending its site to w.hostSites: a silent host keeps its class, its
// representative and its ever-alive bit, and no position, which nothing
// reads. Every draw starts from the prefix's state, w.seedSt.With(p),
// which is detrand.Begin(cfg.Seed, p).
func (w *World) buildUnicastHost(p Prefix24, hc *hostCityTable) unicastHost {
	st := w.seedSt.With(uint64(p))
	u := st.With(0x9009).Unit()
	cfg := w.cfg
	var class hostClass
	switch {
	case u < cfg.ResponsiveFraction:
		class = classResponsive
	case u < cfg.ResponsiveFraction+cfg.AdminFilteredFraction:
		class = classAdminFiltered
	case u < cfg.ResponsiveFraction+cfg.AdminFilteredFraction+cfg.HostProhibitedFraction:
		class = classHostProhibited
	case u < cfg.ResponsiveFraction+cfg.AdminFilteredFraction+cfg.HostProhibitedFraction+cfg.NetProhibitedFraction:
		class = classNetProhibited
	default:
		class = classSilent
	}
	h := unicastHost{
		rep:   p.Host(byte(1 + st.With(0x4E02).Intn(253))),
		class: class,
		// A silent host may still have been seen alive by past hitlist
		// campaigns; about a third were (this makes the score-pruned
		// hitlist ~62% of the full space, matching the paper's 6.6M of
		// 10.6M).
		everAlive: class.answers() || st.With(0x4E03).Unit() < 1.0/3,
	}
	if class.answers() {
		site, _ := placeHost(st, hc)
		h.site = index32(len(w.hostSites), "unicastHost.site")
		w.hostSites = append(w.hostSites, site)
	}
	return h
}

// placeHost places the representative of the unicast /24 whose state is
// st in a population-weighted city (0x9006), which it also returns, with
// rural jitter: a bearing (0x9007) and up to 120 km (0x9008) away.
func placeHost(st detrand.State, hc *hostCityTable) (hostSite, int) {
	x := st.With(0x9006).Unit() * hc.cum[len(hc.cum)-1]
	city := min(sort.SearchFloat64s(hc.cum, x), len(hc.cum)-1)
	bearing := 360 * st.With(0x9007).Unit()
	dist := 120 * st.With(0x9008).Unit()
	loc := hc.origins[city].Destination(bearing, dist)
	return hostSite{loc: loc, cosLat: geo.Prepare(loc).CosLat()}, city
}

// site returns where the unicast host sits. Its class must answer.
func (w *World) site(h *unicastHost) *hostSite { return &w.hostSites[h.site] }

// pinnedFootprints fixes the replica cities of deployments whose geography
// the paper's experiments depend on: OpenDNS's 24 published data-center
// locations (the Sec. 3.4 consistency check and the Ashburn/Philadelphia
// anecdote) and Microsoft's 54-site deployment (Fig. 5: PlanetLab sees 21
// of them, RIPE 54).
var pinnedFootprints = map[string][][2]string{
	"OPENDNS,US": {
		{"Ashburn", "US"}, {"Chicago", "US"}, {"Dallas", "US"}, {"Los Angeles", "US"},
		{"Miami", "US"}, {"New York", "US"}, {"Palo Alto", "US"}, {"Seattle", "US"},
		{"Denver", "US"}, {"Atlanta", "US"}, {"Toronto", "CA"}, {"Vancouver", "CA"},
		{"Amsterdam", "NL"}, {"London", "GB"}, {"Frankfurt", "DE"}, {"Paris", "FR"},
		{"Stockholm", "SE"}, {"Milan", "IT"}, {"Prague", "CZ"}, {"Singapore", "SG"},
		{"Hong Kong", "HK"}, {"Tokyo", "JP"}, {"Sydney", "AU"}, {"Sao Paulo", "BR"},
	},
	"MICROSOFT,US": {
		// 16 sites in regions PlanetLab covers well...
		{"Ashburn", "US"}, {"New York", "US"}, {"Chicago", "US"}, {"Honolulu", "US"},
		{"Dakar", "SN"}, {"Tashkent", "UZ"}, {"Los Angeles", "US"}, {"San Jose", "US"},
		{"Seattle", "US"}, {"Port Louis", "MU"}, {"Kathmandu", "NP"}, {"London", "GB"},
		{"Dublin", "IE"}, {"Amsterdam", "NL"}, {"Frankfurt", "DE"}, {"Paris", "FR"},
		{"Madrid", "ES"}, {"Singapore", "SG"}, {"Hong Kong", "HK"}, {"Tokyo", "JP"},
		{"Sydney", "AU"},
		// ...and 31 in regions it barely reaches - which is why PlanetLab
		// sees only a subset of what RIPE sees (Fig. 5).
		{"Johannesburg", "ZA"}, {"Nairobi", "KE"}, {"Lagos", "NG"}, {"Cairo", "EG"},
		{"Casablanca", "MA"}, {"Dubai", "AE"}, {"Doha", "QA"},
		{"Riyadh", "SA"}, {"Kuwait City", "KW"}, {"Amman", "JO"},
		{"Rio de Janeiro", "BR"}, {"Bogota", "CO"}, {"Lima", "PE"}, {"Panama City", "PA"},
		{"Montevideo", "UY"}, {"Jakarta", "ID"}, {"Bangkok", "TH"},
		{"Kuala Lumpur", "MY"}, {"Manila", "PH"}, {"Ho Chi Minh City", "VN"}, {"Dhaka", "BD"},
		{"Karachi", "PK"}, {"Colombo", "LK"}, {"Perth", "AU"}, {"Moscow", "RU"},
		{"Kyiv", "UA"},
	},
}

// dcPool lists the replica-placement cities with hub weights. It spans the
// ~80 cities / ~40 countries footprint of Fig. 10.
var dcPool = []struct {
	name string
	cc   string
	w    float64
}{
	{"Ashburn", "US", 10}, {"New York", "US", 8}, {"San Jose", "US", 9},
	{"Los Angeles", "US", 8}, {"Chicago", "US", 8}, {"Dallas", "US", 7},
	{"Miami", "US", 7}, {"Seattle", "US", 6}, {"Atlanta", "US", 6},
	{"Denver", "US", 4}, {"Phoenix", "US", 3}, {"Boston", "US", 3},
	{"Houston", "US", 3},
	{"Toronto", "CA", 5}, {"Montreal", "CA", 3}, {"Vancouver", "CA", 3},
	{"London", "GB", 10}, {"Amsterdam", "NL", 10}, {"Frankfurt", "DE", 10},
	{"Paris", "FR", 8}, {"Stockholm", "SE", 5}, {"Milan", "IT", 4},
	{"Madrid", "ES", 4}, {"Vienna", "AT", 3}, {"Warsaw", "PL", 3},
	{"Prague", "CZ", 3}, {"Zurich", "CH", 4}, {"Dublin", "IE", 4},
	{"Brussels", "BE", 3}, {"Copenhagen", "DK", 3}, {"Oslo", "NO", 2},
	{"Rome", "IT", 2},
	{"Bucharest", "RO", 2}, {"Budapest", "HU", 2}, {"Sofia", "BG", 1.5},
	{"Istanbul", "TR", 3}, {"Kyiv", "UA", 1.5},
	{"Moscow", "RU", 3}, {"Saint Petersburg", "RU", 1.5},
	{"Tokyo", "JP", 9}, {"Osaka", "JP", 4}, {"Seoul", "KR", 5},
	{"Hong Kong", "HK", 8}, {"Singapore", "SG", 9}, {"Taipei", "TW", 3},
	{"Beijing", "CN", 2}, {"Shanghai", "CN", 2}, {"Mumbai", "IN", 4},
	{"Delhi", "IN", 2}, {"Chennai", "IN", 2}, {"Bangalore", "IN", 2},
	{"Kuala Lumpur", "MY", 2}, {"Jakarta", "ID", 2}, {"Bangkok", "TH", 2},
	{"Hanoi", "VN", 1},
	{"Sydney", "AU", 6}, {"Melbourne", "AU", 4}, {"Perth", "AU", 1.5},
	{"Auckland", "NZ", 2.5},
	{"Sao Paulo", "BR", 6}, {"Rio de Janeiro", "BR", 2},
	{"Buenos Aires", "AR", 2.5}, {"Santiago", "CL", 2.5}, {"Bogota", "CO", 2},
	{"Lima", "PE", 1.5}, {"Mexico City", "MX", 3}, {"Panama City", "PA", 1},
	{"Johannesburg", "ZA", 3}, {"Cape Town", "ZA", 2}, {"Nairobi", "KE", 1.5},
	{"Lagos", "NG", 1.5}, {"Cairo", "EG", 1.5}, {"Casablanca", "MA", 1},
	{"Tel Aviv", "IL", 2.5}, {"Dubai", "AE", 2.5}, {"Doha", "QA", 1},
	{"Riyadh", "SA", 1},
	{"San Francisco", "US", 4},
	{"Washington", "US", 4}, {"Salt Lake City", "US", 1.5},
	{"Manchester", "GB", 1.5}, {"Marseille", "FR", 2},
	{"Dusseldorf", "DE", 2}, {"Munich", "DE", 2}, {"Hamburg", "DE", 1.5},
	{"Barcelona", "ES", 2}, {"Valencia", "ES", 1},
	{"Brisbane", "AU", 1.5},
	{"Luxembourg", "LU", 1.5},
	{"Vilnius", "LT", 1},
	{"Zagreb", "HR", 1},
	{"Bratislava", "SK", 1},
}

// AlexaHosted reports whether the /24 serves an Alexa top-100k website
// (public mapping data - the DNS resolution of the Alexa list - so the
// analysis pipeline may read it).
func (w *World) AlexaHosted(p Prefix24) bool {
	d, ok := w.Deployment(p)
	return ok && d.HostsAlexa
}

// Evolve returns the world as it looks `epochs` census periods later:
// identical prefix allocation and unicast background, drifted anycast
// footprints. The receiver is unchanged.
func (w *World) Evolve(epochs uint64) *World {
	cfg := w.cfg
	cfg.Epoch += epochs
	return New(cfg)
}
