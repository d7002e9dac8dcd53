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
	"encoding/binary"
	"fmt"
	"math"
	"sort"

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

	// DisableProbeCache turns off the per-VP session memoization of
	// catchments and RTT bases (and with it the span-session resolver),
	// forcing every probe down the uncached reference path. Replies are
	// identical either way (the determinism tests compare the two); the
	// switch exists for those tests and for memory-constrained callers.
	DisableProbeCache bool
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

// unicastHost is the representative host of a unicast /24. rep and
// everAlive are precomputed at build time so the probe hot path never
// re-derives them.
type unicastHost struct {
	loc       geo.Coord
	cosLat    float64 // geo.Prepare(loc).CosLat(): the span resolver's haversine reads it
	rep       IP
	cityIdx   int32
	class     hostClass
	everAlive bool
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

	// Replica geometry, the vantage-point-independent half of a session
	// build, flat and pointer-free so neither buildSession nor the flap
	// path (candBaseMs) touches a *Deployment or a Replica. places holds
	// every distinct replica location of the world, prepared: one slot
	// per (AS, replica), shared by all /24s of the AS. rankGroups holds
	// the distinct replica lists; deployments announcing the same list
	// rank the same from any vantage point. geom[i] is deployments[i]'s
	// record and endAccess the endpoint halves of the access latency
	// (endpointAccessMs) of every deployment's replicas, back to back.
	places     []geo.Point
	rankGroups []rankGroup
	geom       []deploymentGeom
	endAccess  []float64

	// byPrefix maps a /24 to its object: values >= 0 index deployments,
	// values < 0 encode -(unicastIndex+1).
	byPrefix       map[Prefix24]int32
	unicastPrefix  []Prefix24 // unicast index -> prefix
	anycastByASN   map[int][]*Deployment
	dcPool         []poolCity
	cityCumWeights []float64 // population-cumulative weights over Cities.All()

	// hijacks holds injected BGP hijacks (Sec. 5 extension); see
	// InjectHijack.
	hijacks map[Prefix24]hijack

	// faults is the installed failure schedule; nil means a perfectly
	// healthy substrate. See InstallFaults and WithFaults.
	faults *FaultPlan

	// sessions caches per-VP probe-invariant state (see session.go). It
	// sits behind a pointer so WithFaults views share one table.
	sessions *sessionTable
}

// rankGroup is one distinct replica list of the world.
type rankGroup struct {
	slots   []int32 // the list's places, in Replicas order
	members []int32 // the deployments announcing it
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

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Unicast24s <= 0:
		return fmt.Errorf("netsim: Unicast24s must be positive, got %d", c.Unicast24s)
	case c.Unicast24s > maxUnicast24s:
		return fmt.Errorf("netsim: Unicast24s %d exceeds the %d address budget", c.Unicast24s, maxUnicast24s)
	case c.ResponsiveFraction < 0 || c.ResponsiveFraction > 1:
		return fmt.Errorf("netsim: ResponsiveFraction %v outside [0,1]", c.ResponsiveFraction)
	case c.ResponsiveFraction+c.AdminFilteredFraction+c.HostProhibitedFraction+c.NetProhibitedFraction > 1:
		return fmt.Errorf("netsim: reply-class fractions exceed 1")
	case c.StretchBase < 1:
		return fmt.Errorf("netsim: StretchBase %v < 1 would break the speed-of-light invariant", c.StretchBase)
	case c.StretchExtra < 0 || c.AccessMs < 0 || c.JitterMs < 0:
		return fmt.Errorf("netsim: negative noise parameter")
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
		byPrefix:     make(map[Prefix24]int32),
		anycastByASN: make(map[int][]*Deployment),
		// Allocated here, not on first injection: WithFaults views copy
		// the World by value and must share the map, as they share sessions.
		hijacks:  make(map[Prefix24]hijack),
		sessions: &sessionTable{},
	}
	w.Services = services.Build(w.Registry, cfg.Seed)
	w.buildPool()
	w.buildCityWeights()

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
	slotOf := make(map[uint64]bool, totalAnycast)
	for _, s := range anycastSlots {
		slotOf[s] = true
	}

	// Instantiate deployments AS by AS, in registry order.
	slotCursor := 0
	groupOf := make(map[string]int32) // replica list, as place-slot bytes -> rank group
	for _, as := range w.Registry.All() {
		asReplicas := w.buildASReplicaSet(as)
		// Replica i of the AS (Replica.ID == i) is place placeBase+i.
		placeBase := len(w.places)
		for _, r := range asReplicas {
			w.places = append(w.places, geo.Prepare(r.Loc))
		}
		_, pinned := pinnedFootprints[as.Name]
		for p := 0; p < as.IP24s; p++ {
			prefix := basePrefix + Prefix24(anycastSlots[slotCursor])
			slotCursor++
			replicas := asReplicas
			if !pinned {
				replicas = w.prefixReplicaSubset(asReplicas, prefix)
			}
			d := &Deployment{
				Prefix:     prefix,
				ASN:        as.ASN,
				Replicas:   replicas,
				Density:    w.density(as, prefix),
				HostsAlexa: p < as.AlexaIP24s,
				idx:        int32(len(w.deployments)),
				// Anycast infrastructure: a low, alive host address.
				rep: prefix.Host(byte(1 + detrand.Intn(32, cfg.Seed, uint64(prefix), 0x4E01))),
			}
			w.indexReplicas(d, placeBase, groupOf)
			w.byPrefix[prefix] = int32(len(w.deployments))
			w.deployments = append(w.deployments, d)
			w.anycastByASN[as.ASN] = append(w.anycastByASN[as.ASN], d)
		}
	}

	// Fill the remaining slots with unicast representatives.
	w.unicast = make([]unicastHost, 0, cfg.Unicast24s)
	w.unicastPrefix = make([]Prefix24, 0, cfg.Unicast24s)
	for slot := uint64(0); slot < uint64(total); slot++ {
		if slotOf[slot] {
			continue
		}
		prefix := basePrefix + Prefix24(slot)
		idx := len(w.unicast)
		w.unicast = append(w.unicast, w.buildUnicastHost(prefix))
		w.unicastPrefix = append(w.unicastPrefix, prefix)
		w.byPrefix[prefix] = int32(-(idx + 1))
	}
	return w
}

// indexReplicas ties a new deployment of the AS whose replicas start at
// places[placeBase] into the world's replica geometry: its flat record, its
// rank group (a new one unless groupOf knows the replica list already) and
// the endpoint access halves. It panics on a replica list a session could
// not index.
func (w *World) indexReplicas(d *Deployment, placeBase int, groupOf map[string]int32) {
	if len(d.Replicas) > maxReplicas {
		panic(fmt.Sprintf("netsim: %v of AS%d announces %d replicas; a session indexes at most %d (candSet.idx)",
			d.Prefix, d.ASN, len(d.Replicas), maxReplicas))
	}
	g := deploymentGeom{
		prefix:    uint64(d.Prefix),
		placeBase: index32(placeBase, "deploymentGeom.placeBase"),
		access:    index32(len(w.endAccess), "deploymentGeom.access"),
	}
	slots := make([]int32, len(d.Replicas))
	key := make([]byte, 0, 4*len(d.Replicas))
	for i, r := range d.Replicas {
		slots[i] = index32(placeBase+r.ID, "rankGroup.slots")
		key = binary.LittleEndian.AppendUint32(key, uint32(slots[i]))
		w.endAccess = append(w.endAccess, w.endpointAccessMs(g.prefix, uint64(r.ID)))
	}
	group, ok := groupOf[string(key)]
	if !ok {
		group = index32(len(w.rankGroups), "deploymentGeom.group")
		groupOf[string(key)] = group
		w.rankGroups = append(w.rankGroups, rankGroup{slots: slots})
	}
	g.group = group
	w.rankGroups[group].members = append(w.rankGroups[group].members, d.idx)
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

// InstallFaults attaches a failure schedule to the world; nil removes it.
// Like InjectHijack it must happen before probing starts and is not safe
// to call concurrently with probes — use WithFaults for a race-free view.
func (w *World) InstallFaults(p *FaultPlan) { w.faults = p }

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
	i, ok := w.byPrefix[p]
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
	i, ok := w.byPrefix[p]
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
	total := w.Registry.TotalFootprint() + w.cfg.Unicast24s
	for slot := 0; slot < total; slot++ {
		fn(basePrefix + Prefix24(slot))
	}
}

// Representative returns the hitlist representative address for a prefix
// and whether any host in the /24 has ever been seen alive (targets with no
// alive host carry a negative hitlist score, Sec. 3.1).
func (w *World) Representative(p Prefix24) (IP, bool) {
	i, ok := w.byPrefix[p]
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
	i, ok := w.byPrefix[ip.Prefix()]
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

// buildPool assembles the datacenter-city pool replicas are placed in:
// the classic interconnection hubs get the highest weights.
func (w *World) buildPool() {
	for _, e := range dcPool {
		w.dcPool = append(w.dcPool, poolCity{city: w.Cities.MustByName(e.name, e.cc), w: e.w})
	}
}

// buildCityWeights prepares population-proportional sampling for unicast
// host placement.
func (w *World) buildCityWeights() {
	all := w.Cities.All()
	w.cityCumWeights = make([]float64, len(all))
	sum := 0.0
	for i, c := range all {
		sum += float64(c.Population)
		w.cityCumWeights[i] = sum
	}
}

// buildASReplicaSet chooses the true replica cities of an AS: the paper's
// measured mean footprint inflated to deployment truth, sampled from the
// datacenter pool with hub bias. Small operators outside the top-100
// (country-code registries, national clouds) often deploy regionally: about
// 70% of tail ASes keep every replica within ~800 km of an anchor hub,
// which makes them borderline for speed-of-light detection - the population
// behind Fig. 12's two-replica tail and the recall gained by combining
// censuses.
func (w *World) buildASReplicaSet(as asdb.AS) []Replica {
	if pinned, ok := pinnedFootprints[as.Name]; ok {
		replicas := make([]Replica, 0, len(pinned))
		for i, nc := range pinned {
			city := w.Cities.MustByName(nc[0], nc[1])
			bearing := 360 * detrand.UnitFloat(w.cfg.Seed, uint64(as.ASN), uint64(i), 0x9002)
			dist := 12 * detrand.UnitFloat(w.cfg.Seed, uint64(as.ASN), uint64(i), 0x9003)
			replicas = append(replicas, Replica{ID: i, City: city, Loc: geo.Destination(city.Loc, bearing, dist)})
		}
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
	var anchor geo.Coord
	if regional {
		anchor = w.dcPool[detrand.Intn(len(w.dcPool), w.cfg.Seed, uint64(as.ASN), 0x9011)].city.Loc
	}

	// Weighted sampling without replacement, deterministic per AS.
	type cand struct {
		idx int
		key float64
	}
	build := func(regionOnly bool) []cand {
		out := make([]cand, 0, len(w.dcPool))
		for i, pc := range w.dcPool {
			if regionOnly && geo.DistanceKm(anchor, pc.city.Loc) > 800 {
				continue
			}
			// Efraimidis-Spirakis weighted reservoir keys.
			u := detrand.UnitFloat(w.cfg.Seed, uint64(as.ASN), uint64(i), 0x9001)
			if u <= 0 {
				u = 1e-12
			}
			out = append(out, cand{idx: i, key: math.Pow(u, 1/pc.w)})
		}
		return out
	}
	cands := build(regional)
	if len(cands) < 2 {
		// The anchor region is too sparse to host an anycast deployment;
		// fall back to a global spread.
		cands = build(false)
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].key > cands[b].key })
	if n > len(cands) {
		n = len(cands)
	}
	replicas := make([]Replica, 0, n)
	for i := 0; i < n; i++ {
		pc := w.dcPool[cands[i].idx]
		bearing := 360 * detrand.UnitFloat(w.cfg.Seed, uint64(as.ASN), uint64(i), 0x9002)
		dist := 12 * detrand.UnitFloat(w.cfg.Seed, uint64(as.ASN), uint64(i), 0x9003)
		replicas = append(replicas, Replica{
			ID:   i,
			City: pc.city,
			Loc:  geo.Destination(pc.city.Loc, bearing, dist),
		})
	}
	return replicas
}

// prefixReplicaSubset selects the replicas announcing one specific /24 of
// the AS: most prefixes are served from the full AS footprint, with a
// little per-prefix variation (the paper reports small standard deviations
// across /24s of the same AS, Fig. 9).
func (w *World) prefixReplicaSubset(asReplicas []Replica, p Prefix24) []Replica {
	out := make([]Replica, 0, len(asReplicas))
	for i, r := range asReplicas {
		if detrand.UnitFloat(w.cfg.Seed, uint64(p), uint64(i), 0x9004) < 0.9 {
			out = append(out, r)
		}
	}
	if len(out) < 2 {
		out = append(out[:0], asReplicas[0], asReplicas[1])
	}
	return out
}

// density draws the alive-host density of a /24 (Sec. 4.2: Google's DNS
// /24s are nearly empty, CloudFlare's nearly full).
func (w *World) density(as asdb.AS, p Prefix24) float64 {
	switch as.Name {
	case "CLOUDFLARENET,US":
		return 0.995
	case "GOOGLE,US":
		return 0.008 // 8.8.8.8-style: one or two alive addresses
	}
	return 0.1 + 0.8*detrand.UnitFloat(w.cfg.Seed, uint64(p), 0x9005)
}

// buildUnicastHost places a unicast representative in a population-weighted
// city with rural jitter and draws its ICMP behaviour class.
func (w *World) buildUnicastHost(p Prefix24) unicastHost {
	all := w.Cities.All()
	total := w.cityCumWeights[len(w.cityCumWeights)-1]
	x := detrand.UnitFloat(w.cfg.Seed, uint64(p), 0x9006) * total
	idx := sort.SearchFloat64s(w.cityCumWeights, x)
	if idx >= len(all) {
		idx = len(all) - 1
	}
	bearing := 360 * detrand.UnitFloat(w.cfg.Seed, uint64(p), 0x9007)
	dist := 120 * detrand.UnitFloat(w.cfg.Seed, uint64(p), 0x9008)
	loc := geo.Destination(all[idx].Loc, bearing, dist)

	u := detrand.UnitFloat(w.cfg.Seed, uint64(p), 0x9009)
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
	// A silent host may still have been seen alive by past hitlist
	// campaigns; about a third were (this makes the score-pruned hitlist
	// ~62% of the full space, matching the paper's 6.6M of 10.6M).
	everAlive := class != classSilent ||
		detrand.UnitFloat(w.cfg.Seed, uint64(p), 0x4E03) < 1.0/3
	return unicastHost{
		loc:       loc,
		cosLat:    geo.Prepare(loc).CosLat(),
		rep:       p.Host(byte(1 + detrand.Intn(253, w.cfg.Seed, uint64(p), 0x4E02))),
		cityIdx:   int32(idx),
		class:     class,
		everAlive: everAlive,
	}
}

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
