package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// sessionTestWorlds builds two identically-configured small worlds, one
// with the probe cache and one forced down the uncached reference path.
func sessionTestWorlds(t testing.TB) (cached, uncached *World) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Unicast24s = 600
	return sessionWorldPair(cfg)
}

// sessionWorldPair builds the configured world twice: as configured, and
// without a session table (newUncached).
func sessionWorldPair(cfg Config) (cached, uncached *World) {
	return New(cfg), newUncached(cfg)
}

// sessionTestTargets lists the representative of every allocated /24,
// anycast and unicast, in address order.
func sessionTestTargets(w *World) []IP {
	var targets []IP
	w.Prefixes(func(p Prefix24) {
		if ip, _ := w.Representative(p); ip != 0 {
			targets = append(targets, ip)
		}
	})
	return targets
}

// sessionTestVPs mixes PlanetLab and RIPE vantage points: the two
// platforms assign overlapping ID ranges, so this doubles as a check that
// the session key keeps their caches apart.
func sessionTestVPs() []platform.VP {
	pl := platform.PlanetLab(cities.Default()).VPs()
	ripe := platform.RIPEAtlas(cities.Default()).VPs()
	vps := append([]platform.VP{}, pl[:6]...)
	return append(vps, ripe[:6]...)
}

// rankTransitions counts, per probe path, the (stable rank -> serving rank)
// pair behind every anycast echo a bit-identity test compared, apart for
// two-replica lists and longer ones. Every anycast probe, span or ad hoc,
// builds the serving rank's base on the spot (servedBaseMs); a serving
// rank other than the stable one comes from servingRank's flap branch,
// and the off-diagonal counts are the proof that the comparison walked it
// onto every other rank.
type rankTransitions map[string]*[2][3][3]int

// note records the transition behind got, the cached world's reply to a
// probe of d's prefix.
func (rt rankTransitions) note(path string, cached *World, vp platform.VP, d *Deployment, round uint64, got Reply) {
	if !got.OK() {
		return
	}
	s := cached.session(vp)
	dg := &cached.geom[d.idx]
	idx, pair := &s.ranked[dg.group], s.st.With(dg.prefix)
	counts := rt[path]
	if counts == nil {
		counts = new([2][3][3]int)
		rt[path] = counts
	}
	long := 0
	if idx[2] >= 0 {
		long = 1
	}
	counts[long][stableRank(idx, pair)][servingRank(idx, pair, round)]++
}

// check fails unless every path saw each off-diagonal transition - two of
// two-replica lists, six of longer ones - at least min times.
func (rt rankTransitions) check(t *testing.T, min int, paths ...string) {
	t.Helper()
	for _, path := range paths {
		counts := rt[path]
		if counts == nil {
			t.Errorf("%s: no anycast echo compared", path)
			continue
		}
		for long, ranks := range []int{2, 3} {
			for stored := 0; stored < ranks; stored++ {
				for serving := 0; serving < ranks; serving++ {
					if n := counts[long][stored][serving]; stored != serving && n < min {
						t.Errorf("%s: %d replies of %d-candidate catchments went from stored rank %d to serving rank %d, want >= %d",
							path, n, ranks, stored, serving, min)
					}
				}
			}
		}
		t.Logf("%s transitions [stored][serving]: two-replica %v, longer %v", path, counts[0], counts[1])
	}
}

// sessionWorldShapes are the world shapes the replica geometry and the
// session's tables depend on: the seed (every draw), the epoch (drifted
// footprints), the deployment inflation (longer replica lists, up to the
// whole datacenter pool).
var sessionWorldShapes = []worldShape{
	{"default", 2015, 0, 1},
	{"seed 7", 7, 0, 1},
	{"epoch 2", 2015, 2, 1},
	{"inflation 2", 2015, 0, 2},
	{"seed 7, epoch 2, inflation 2", 7, 2, 2},
}

type worldShape struct {
	name      string
	seed      uint64
	epoch     uint64
	inflation float64
}

// config is the small test world of the shape.
func (shape worldShape) config() Config {
	cfg := DefaultConfig()
	cfg.Unicast24s = 600
	cfg.Seed, cfg.Epoch, cfg.DeploymentInflation = shape.seed, shape.epoch, shape.inflation
	return cfg
}

// TestSessionCacheBitIdentical is the memoization's contract: every probe
// reply - kind and RTT, anycast and unicast, ICMP, TCP and DNS - and every
// replica selection is bit-identical with the memoization on or off, in
// every sessionWorldShapes world. A session caches only the ranking, and
// a probe builds the base toward the rank that serves it - another rank
// than the stable one only when a catchment flaps onto it - so the test
// also counts the rank transitions behind the replies it compared and
// fails unless every probe path built every kind of base (rankTransitions).
func TestSessionCacheBitIdentical(t *testing.T) {
	vps := sessionTestVPs()
	for _, shape := range sessionWorldShapes {
		t.Run(shape.name, func(t *testing.T) {
			cached, uncached := sessionWorldPair(shape.config())

			targets := sessionTestTargets(cached)
			if len(targets) < 2000 {
				t.Fatalf("expected >2000 targets, got %d", len(targets))
			}

			seen := rankTransitions{}
			for _, vp := range vps {
				for ti, target := range targets {
					d, anycast := cached.Deployment(target.Prefix())
					for round := uint64(1); round <= 3; round++ {
						got, want := cached.ProbeICMP(vp, target, round), uncached.ProbeICMP(vp, target, round)
						if got != want {
							t.Fatalf("ICMP vp=%s target=%v round=%d: cached %+v, uncached %+v", vp.Name, target, round, got, want)
						}
						if anycast {
							seen.note("ProbeICMP", cached, vp, d, round, got)
						}
						// TCP and DNS are cheaper to spot-check on a slice.
						if ti%7 == 0 {
							got, want = cached.ProbeTCP(vp, target, 80, round), uncached.ProbeTCP(vp, target, 80, round)
							if got != want {
								t.Fatalf("TCP vp=%s target=%v round=%d: cached %+v, uncached %+v", vp.Name, target, round, got, want)
							}
							got, want = cached.ProbeDNSUDP(vp, target, round), uncached.ProbeDNSUDP(vp, target, round)
							if got != want {
								t.Fatalf("DNS vp=%s target=%v round=%d: cached %+v, uncached %+v", vp.Name, target, round, got, want)
							}
						}
					}
				}
			}

			// Every deployment - pinned footprints, two-replica
			// fallbacks and replica lists shared within an AS included -
			// selects the same replica (the CHAOS/ground-truth path) and
			// answers TCP, on a port its AS really has open, and DNS the
			// same; the sweep above had every representative's ICMP.
			pinned, pairs := 0, 0
			lists := map[string]bool{}
			for _, d := range cached.Deployments() {
				if as, ok := cached.Registry.ByASN(d.ASN); ok && pinnedFootprints[as.Name] != nil {
					pinned++
				}
				if len(d.Replicas) == 2 {
					pairs++
				}
				list := fmt.Sprint(d.ASN)
				for _, r := range d.Replicas {
					list += fmt.Sprint(" ", r.ID)
				}
				lists[list] = true

				port := uint16(80)
				if set, ok := cached.Services.ByASN(d.ASN); ok && set.Len() > 0 {
					port = set.OpenPorts()[0]
				}
				for _, vp := range vps {
					for round := uint64(1); round <= 3; round++ {
						got, _ := cached.ServingReplica(vp, d.Prefix, round)
						want, _ := uncached.ServingReplica(vp, d.Prefix, round)
						if got.ID != want.ID || got.Loc != want.Loc {
							t.Fatalf("ServingReplica vp=%s prefix=%v round=%d: cached %v, uncached %v", vp.Name, d.Prefix, round, got.ID, want.ID)
						}
						same := func(path string, got, want Reply) {
							t.Helper()
							if got != want {
								t.Fatalf("%s vp=%s %v round=%d: cached %+v, uncached %+v", path, vp.Name, d, round, got, want)
							}
							seen.note(path, cached, vp, d, round, got)
						}
						same("ProbeTCP", cached.ProbeTCP(vp, d.rep, port, round), uncached.ProbeTCP(vp, d.rep, port, round))
						same("ProbeDNSUDP", cached.ProbeDNSUDP(vp, d.rep, round), uncached.ProbeDNSUDP(vp, d.rep, round))
					}
				}
			}
			if pinned == 0 || pairs == 0 || len(lists) == len(cached.Deployments()) {
				t.Fatalf("world lacks a shape under test: %d pinned, %d two-replica, %d distinct lists of %d deployments",
					pinned, pairs, len(lists), len(cached.Deployments()))
			}
			seen.check(t, 10, "ProbeICMP", "ProbeTCP", "ProbeDNSUDP")
		})
	}
}

// TestBuildSessionAllocs pins a session build to its one allocation, the
// ranking - the keys and remembered haversines live in the caller's
// scratch, which the test keeps across builds as a sync.Pool cannot under
// the race detector - whatever the world holds: 1,696 deployments allocate
// as often as their longer-listed DeploymentInflation 2 twins, not once
// per deployment or per AS.
func TestBuildSessionAllocs(t *testing.T) {
	vp := sessionTestVPs()[0]
	for _, inflation := range []float64{1, 2} {
		cfg := DefaultConfig()
		cfg.Unicast24s = 600
		cfg.DeploymentInflation = inflation
		w := New(cfg)
		var scratch []float64
		allocs := testing.AllocsPerRun(10, func() {
			var s vpSession
			w.buildSession(&s, vp, &scratch)
		})
		if allocs > 1 {
			t.Errorf("inflation %v: %v allocations per session build of %d deployments, want <= 1", inflation, allocs, len(w.deployments))
		}
	}
}

// residentBytes is what the session's slab holds for the life of the
// world.
func (s *vpSession) residentBytes() uintptr {
	return uintptr(cap(s.ranked)) * unsafe.Sizeof([3]int16{})
}

// TestSessionResidentBytes holds a vantage point's session to 6 bytes per
// rank group - the three nearest replicas every deployment announcing the
// list shares - and nothing per deployment, in every sessionWorldShapes
// world: a per-deployment value, the RTT base toward the replica that
// answers included, is built by the probe that reads it.
func TestSessionResidentBytes(t *testing.T) {
	for _, shape := range sessionWorldShapes {
		w := New(shape.config())
		s := w.session(sessionTestVPs()[0])
		want := uintptr(6 * len(w.rankGroups))
		if got := s.residentBytes(); got != want {
			t.Errorf("%s: a session holds %d B for %d deployments in %d rank groups, want 6 x rank groups = %d B",
				shape.name, got, len(w.deployments), len(w.rankGroups), want)
		}
		if len(w.rankGroups) >= len(w.deployments) {
			t.Errorf("%s: %d rank groups for %d deployments: no replica list is shared", shape.name, len(w.rankGroups), len(w.deployments))
		}
	}
}

// TestReplicaGeometryFlat holds the world's flat replica geometry - what
// buildSession and rankBaseMs read in place of deployments and replicas -
// to the objects it was laid out from: every deployment's prefix key,
// replica IDs, prepared places, unit vectors and endpoint access halves
// come back bit for bit, and every deployment of a rank group shares one
// Replicas slice, the one of the group's first deployment.
func TestReplicaGeometryFlat(t *testing.T) {
	for _, shape := range sessionWorldShapes {
		t.Run(shape.name, func(t *testing.T) {
			w := New(shape.config())
			if len(w.geom) != len(w.deployments) {
				t.Fatalf("%d geometry records for %d deployments", len(w.geom), len(w.deployments))
			}
			replicas := 0
			for di, d := range w.deployments {
				dg := w.geom[di]
				slots := w.rankGroups[dg.group].slots
				if dg.prefix != uint64(d.Prefix) || len(slots) != len(d.Replicas) || int(dg.access) != replicas {
					t.Fatalf("%v: record %+v over %d slots, want prefix key %d, %d slots, access offset %d",
						d, dg, len(slots), uint64(d.Prefix), len(d.Replicas), replicas)
				}
				for ri, r := range d.Replicas {
					if id := int(slots[ri] - dg.placeBase); id != r.ID {
						t.Fatalf("%v replica %d: slot %d - placeBase %d = %d, want ID %d", d, ri, slots[ri], dg.placeBase, id, r.ID)
					}
					if got, want := w.places[slots[ri]], geo.Prepare(r.Loc); got != want {
						t.Fatalf("%v replica %d: place %+v, want %+v", d, ri, got, want)
					}
					if got, want := w.placeVecs[slots[ri]], geo.UnitVec(r.Loc); got != want {
						t.Fatalf("%v replica %d: unit vector %v, want %v", d, ri, got, want)
					}
					got, want := w.endAccess[int(dg.access)+ri], w.endpointAccessMs(uint64(d.Prefix), uint64(r.ID))
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v replica %d: endpoint access %v, want %v", d, ri, got, want)
					}
				}
				replicas += len(d.Replicas)
			}
			if len(w.endAccess) != replicas {
				t.Errorf("%d endpoint access halves for %d replicas", len(w.endAccess), replicas)
			}

			for gi, g := range w.rankGroups {
				if w.geom[g.first].group != int32(gi) {
					t.Fatalf("rank group %d opens with deployment %d, which is of group %d", gi, g.first, w.geom[g.first].group)
				}
			}
			for di, dg := range w.geom {
				// One replica list, one slice: a group's deployments share
				// its first deployment's backing storage.
				first := w.deployments[w.rankGroups[dg.group].first].Replicas
				if r := w.deployments[di].Replicas; len(r) != len(first) || &r[0] != &first[0] {
					t.Fatalf("rank group %d: deployment %d's replica list does not share the group's storage", dg.group, di)
				}
			}
		})
	}
}

// TestReplicaIndexWidth holds the replica lists the world can produce to
// the width of a vpSession.ranked entry: every list is a subset of the
// datacenter pool or a pinned footprint, and New refuses a longer one - or
// a geometry index beyond int32 - by name where a narrowing conversion
// would wrap silently.
func TestReplicaIndexWidth(t *testing.T) {
	if index32(math.MaxInt32, "rankGroup.slots") != math.MaxInt32 {
		t.Error("index32 moved the last index that fits")
	}
	// On a 32-bit int no index can pass int32; the check is for 64-bit.
	if past := int64(math.MaxInt32) + 1; int64(int(past)) == past {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "rankGroup.slots") {
					t.Errorf("index32 past int32: recovered %q, want a panic naming rankGroup.slots", msg)
				}
			}()
			index32(int(past), "rankGroup.slots")
		}()
	}
	var ranked [3]int16
	ranked[0] = maxReplicas - 1 // the last index New lets through must fit
	if len(dcPool) > maxReplicas {
		t.Errorf("dcPool has %d cities, vpSession.ranked indexes %d replicas", len(dcPool), maxReplicas)
	}
	for name, footprint := range pinnedFootprints {
		if len(footprint) > maxReplicas {
			t.Errorf("%s pins %d replicas, vpSession.ranked indexes %d", name, len(footprint), maxReplicas)
		}
	}

	saved := pinnedFootprints["OPENDNS,US"]
	defer func() { pinnedFootprints["OPENDNS,US"] = saved }()
	wide := make([][2]string, maxReplicas+1)
	for i := range wide {
		wide[i] = saved[i%len(saved)]
	}
	pinnedFootprints["OPENDNS,US"] = wide
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "replicas") || !strings.Contains(msg, "vpSession.ranked") {
			t.Errorf("New on a %d-replica deployment: recovered %q, want a panic naming the replica count and vpSession.ranked", len(wide), msg)
		}
	}()
	cfg := DefaultConfig()
	cfg.Unicast24s = 600
	New(cfg)
}

// TestSessionCacheHijackBypass verifies the cache interplay with injected
// hijacks: hijacked prefixes take the live path (the hijack shows up even
// in a pre-warmed session), and clearing the hijack restores the original
// cached behavior.
func TestSessionCacheHijackBypass(t *testing.T) {
	cached, uncached := sessionTestWorlds(t)
	vps := sessionTestVPs()

	// Find a responsive unicast prefix.
	var prefix Prefix24
	var target IP
	cached.Prefixes(func(p Prefix24) {
		if prefix != 0 {
			return
		}
		if cached.IsAnycast(p) {
			return
		}
		ip, alive := cached.Representative(p)
		if alive && cached.ProbeICMP(vps[0], ip, 1).OK() { // warms the session pre-hijack
			prefix, target = p, ip
		}
	})
	if prefix == 0 {
		t.Fatal("no responsive unicast prefix found")
	}

	hijacker := geo.Coord{Lat: -33.9, Lon: 151.2} // far from most hosts
	for _, w := range []*World{cached, uncached} {
		if err := w.InjectHijack(prefix, hijacker, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	for _, vp := range vps {
		for round := uint64(1); round <= 3; round++ {
			got, want := cached.ProbeICMP(vp, target, round), uncached.ProbeICMP(vp, target, round)
			if got != want {
				t.Fatalf("hijacked ICMP vp=%s round=%d: cached %+v, uncached %+v", vp.Name, round, got, want)
			}
		}
	}

	cached.ClearHijack(prefix)
	uncached.ClearHijack(prefix)
	for _, vp := range vps {
		got, want := cached.ProbeICMP(vp, target, 2), uncached.ProbeICMP(vp, target, 2)
		if got != want {
			t.Fatalf("post-clear ICMP vp=%s: cached %+v, uncached %+v", vp.Name, got, want)
		}
	}
}

// TestSessionSharedAcrossFaultViews checks that WithFaults views reuse the
// receiver's session table rather than rebuilding caches per view.
func TestSessionSharedAcrossFaultViews(t *testing.T) {
	cached, _ := sessionTestWorlds(t)
	vp := sessionTestVPs()[0]
	cached.session(vp) // warm
	view := cached.WithFaults(nil)
	if view.sessions != cached.sessions {
		t.Fatal("WithFaults view does not share the session table")
	}
	if key := (sessionKey{id: vp.ID, lat: vp.Loc.Lat, lon: vp.Loc.Lon}); find(*view.sessions.slots.Load(), key, key.hash()) == nil {
		t.Fatal("warmed session not visible through the fault view")
	}
}

// TestSpanSessionBitIdentical pins the span-resident hot path: a span
// session resolved over any window of the target list — every width, any
// alignment — answers bit-identically to the uncached reference path, for
// every reply kind the world produces (echo, the three greylistable
// errors, structural timeouts, anycast and unicast alike) - the anycast
// echoes whose base the span had to rebuild included (rankTransitions).
func TestSpanSessionBitIdentical(t *testing.T) {
	cached, uncached := sessionTestWorlds(t)
	vps := sessionTestVPs()

	targets := sessionTestTargets(cached)

	seen := rankTransitions{}
	widths := []int{1, 17, 256, len(targets)}
	for _, width := range widths {
		for _, vp := range vps {
			for lo := 0; lo < len(targets); lo += width {
				hi := lo + width
				if hi > len(targets) {
					hi = len(targets)
				}
				span := cached.ProbeSpanSession(vp, targets[lo:hi])
				for i := lo; i < hi; i++ {
					d, anycast := cached.Deployment(targets[i].Prefix())
					for round := uint64(1); round <= 2; round++ {
						got, want := span.ICMP(i-lo, round), uncached.ProbeICMP(vp, targets[i], round)
						if got != want {
							t.Fatalf("span[%d:%d] vp=%s target=%v round=%d: span %+v, uncached %+v",
								lo, hi, vp.Name, targets[i], round, got, want)
						}
						if anycast {
							seen.note("SpanSession.ICMP", cached, vp, d, round, got)
						}
					}
				}
			}
		}
	}
	seen.check(t, 10*len(widths), "SpanSession.ICMP") // every width compares every reply

	// The resolver must survive arbitrary target order (reversed spans
	// break order at every step) and targets the world never allocated.
	rev := make([]IP, 0, 512)
	for i := 400; i >= 0; i-- {
		rev = append(rev, targets[i])
	}
	rev = append(rev, IP(0xDF000001), targets[0], IP(0x01000001))
	span := cached.ProbeSpanSession(vps[0], rev)
	for i, target := range rev {
		got, want := span.ICMP(i, 1), uncached.ProbeICMP(vps[0], target, 1)
		if got != want {
			t.Fatalf("reversed span i=%d target=%v: span %+v, uncached %+v", i, target, got, want)
		}
	}

	// With the probe cache disabled the span session must degrade to the
	// reference path, not to stale slabs.
	slow := uncached.ProbeSpanSession(vps[1], targets[:64])
	for i := range targets[:64] {
		got, want := slow.ICMP(i, 3), uncached.ProbeICMP(vps[1], targets[i], 3)
		if got != want {
			t.Fatalf("nocache span i=%d: span %+v, reference %+v", i, got, want)
		}
	}
}

// TestSpanSessionHijackBypass checks that a span resolved after a hijack
// injection routes the hijacked prefix down the live per-probe path, and
// that clearing the hijack restores fast-path behavior in later spans.
func TestSpanSessionHijackBypass(t *testing.T) {
	cached, uncached := sessionTestWorlds(t)
	vps := sessionTestVPs()

	var prefix Prefix24
	var target IP
	cached.Prefixes(func(p Prefix24) {
		if prefix != 0 || cached.IsAnycast(p) {
			return
		}
		if ip, alive := cached.Representative(p); alive && cached.ProbeICMP(vps[0], ip, 1).OK() {
			prefix, target = p, ip
		}
	})
	if prefix == 0 {
		t.Fatal("no responsive unicast prefix found")
	}

	hijacker := geo.Coord{Lat: -33.9, Lon: 151.2}
	for _, w := range []*World{cached, uncached} {
		if err := w.InjectHijack(prefix, hijacker, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	for _, vp := range vps {
		span := cached.ProbeSpanSession(vp, []IP{target})
		for round := uint64(1); round <= 3; round++ {
			got, want := span.ICMP(0, round), uncached.ProbeICMP(vp, target, round)
			if got != want {
				t.Fatalf("hijacked span vp=%s round=%d: span %+v, uncached %+v", vp.Name, round, got, want)
			}
		}
	}

	cached.ClearHijack(prefix)
	uncached.ClearHijack(prefix)
	for _, vp := range vps {
		span := cached.ProbeSpanSession(vp, []IP{target})
		got, want := span.ICMP(0, 2), uncached.ProbeICMP(vp, target, 2)
		if got != want {
			t.Fatalf("post-clear span vp=%s: span %+v, uncached %+v", vp.Name, got, want)
		}
	}
}

// TestSpanSessionSparseAndUnordered pins the resolver's slot lookup on
// the target lists a census span never is: strided samples, clusters with
// long gaps between them, descending and shuffled lists, repeated /24s,
// hosts that are not their /24's representative, anycast /24s, and
// addresses the world never allocated - 0.0.0.0, below and just past the
// slot index, far above it, at 224.0.0.0/24 and in the last /24 of the
// address space. Every reply equals ProbeICMP's on a
// world without a session table, with and without an injected hijack.
func TestSpanSessionSparseAndUnordered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Unicast24s = 4000
	cached, uncached := sessionWorldPair(cfg)
	vps := sessionTestVPs()
	vps = []platform.VP{vps[0], vps[5], vps[7]} // two PlanetLab, one RIPE

	var reps, anycast []IP
	var first, last Prefix24
	cached.Prefixes(func(p Prefix24) {
		if first == 0 {
			first = p
		}
		last = p
		ip, _ := cached.Representative(p)
		reps = append(reps, ip)
		if cached.IsAnycast(p) {
			anycast = append(anycast, ip)
		}
	})
	// A responsive unicast /24 to hijack in the second pass; every list
	// carries it.
	var victim IP
	for _, ip := range reps[len(reps)/2:] {
		if !cached.IsAnycast(ip.Prefix()) && cached.ProbeICMP(vps[0], ip, 1).OK() {
			victim = ip
			break
		}
	}
	if victim == 0 {
		t.Fatal("no responsive unicast /24 found")
	}
	outside := []IP{0x00000101, (first - 1).Host(1), (last + 1).Host(1), (last + 5000).Host(9), 0xDF000001,
		0, Prefix24(0xE00000).Host(1), Prefix24(1<<24 - 1).Host(254)}

	lists := map[string][]IP{}
	var strided []IP
	for i := 0; i < len(reps); i += 200 {
		strided = append(strided, reps[i])
	}
	lists["strided"] = strided
	var clustered []IP
	for _, start := range []int{3, 900, 907, 2500, len(reps) - 12} {
		clustered = append(clustered, reps[start:start+10]...)
	}
	lists["clustered"] = clustered
	var descending []IP
	for i := len(reps) - 1; i >= 0; i -= 37 {
		descending = append(descending, reps[i])
	}
	lists["descending"] = descending
	shuffled := append(append([]IP{}, strided...), clustered...)
	shuffled = append(shuffled, outside...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	lists["shuffled"] = shuffled
	var repeated []IP
	for _, ip := range strided {
		repeated = append(repeated, ip, ip, ip.Prefix().Host(ip.HostByte()+1), ip)
	}
	lists["repeated /24s"] = repeated
	var nonRep []IP
	for i := 0; i < len(reps); i += 61 {
		nonRep = append(nonRep, reps[i].Prefix().Host(reps[i].HostByte()^0x55), reps[i].Prefix().Host(200))
	}
	lists["non-representative hosts"] = nonRep
	lists["anycast /24s"] = anycast
	sparse := append([]IP{outside[0], outside[1]}, strided...)
	lists["outside the world"] = append(sparse, outside[2:]...)

	check := func(pass string) {
		for name, list := range lists {
			list = append(append([]IP{}, list...), victim)
			for _, vp := range vps {
				span := cached.ProbeSpanSession(vp, list)
				for i, target := range list {
					for round := uint64(1); round <= 2; round++ {
						got, want := span.ICMP(i, round), uncached.ProbeICMP(vp, target, round)
						if got != want {
							t.Fatalf("%s, %s: vp=%s i=%d target=%v round=%d: span %+v, reference %+v",
								pass, name, vp.Name, i, target, round, got, want)
						}
					}
				}
			}
		}
	}
	check("no hijack")
	for _, w := range []*World{cached, uncached} {
		if err := w.InjectHijack(victim.Prefix(), geo.Coord{Lat: -33.9, Lon: 151.2}, 0.6); err != nil {
			t.Fatal(err)
		}
	}
	check("hijacked")
}

// TestSpanPlanSharedBitIdentical pins what a census round does with a span
// plan: one plan per span, built once and read by every vantage point of
// the round and again by every vantage point of the next round, the second
// round through a WithFaults view (target outages) of the world the plan
// was built on. Every reply through a session over the shared plan equals
// the reply of a fresh single-use ProbeSpanSession and of ProbeICMP on a
// world without a session table, over dense, sparse, unordered and repeated-/24
// spans, silent and non-representative hosts and anycast density misses,
// first with a hijack injected before the plans are built, then with it
// cleared before the next plans are.
func TestSpanPlanSharedBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Unicast24s = 3000
	cached, uncached := sessionWorldPair(cfg)
	vps := sessionTestVPs()
	outages, err := NewFaultPlan(FaultConfig{Seed: 5, TargetOutageFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	var reps, nonRep, anycastHosts []IP
	var victim IP
	cached.Prefixes(func(p Prefix24) {
		ip, _ := cached.Representative(p)
		reps = append(reps, ip)
		if len(reps)%7 == 0 {
			nonRep = append(nonRep, p.Host(ip.HostByte()^0x55))
		}
		if cached.IsAnycast(p) {
			for h := 1; h < 60; h += 4 { // the representative, density hits and misses
				anycastHosts = append(anycastHosts, p.Host(byte(h)))
			}
		} else if victim == 0 && len(reps) > 1500 && cached.ProbeICMP(vps[0], ip, 1).OK() {
			victim = ip
		}
	})
	if victim == 0 {
		t.Fatal("no responsive unicast /24 found")
	}
	var sparse []IP
	for i := 0; i < len(reps); i += 97 {
		sparse = append(sparse, reps[i])
	}
	unordered := append(append(append([]IP{}, sparse...), nonRep[:40]...), anycastHosts[:200]...)
	rand.New(rand.NewSource(11)).Shuffle(len(unordered), func(i, j int) { unordered[i], unordered[j] = unordered[j], unordered[i] })
	var repeated []IP
	for _, ip := range sparse {
		repeated = append(repeated, ip, ip, ip.Prefix().Host(ip.HostByte()+1), ip)
	}
	lists := map[string][]IP{
		"dense":              reps[1200:1900],
		"sparse":             sparse,
		"unordered":          unordered,
		"repeated /24s":      repeated,
		"non-representative": nonRep,
		"anycast hosts":      anycastHosts,
	}

	// seen tallies what the plans classed, by why: the comparison must
	// have walked every kind of target it claims to cover.
	seen := map[string]int{}
	tally := func(pl *SpanPlan) {
		for i, target := range pl.targets {
			p := target.Prefix()
			switch d, anycast := cached.Deployment(p); {
			case pl.cls[i] == spanSlow:
				seen["hijacked"]++
			case anycast && target != d.rep && pl.cls[i] == spanTimeout:
				seen["anycast density miss"]++
			case anycast && target != d.rep:
				seen["anycast density hit"]++
			case anycast:
				continue
			case pl.cls[i] == spanTimeout && target == cached.unicast[-(cached.slots[p-basePrefix]+1)].rep:
				seen["silent"]++
			case pl.cls[i] == spanTimeout:
				seen["non-representative"]++
			case pl.cls[i] != spanUniEcho:
				seen["greylistable"]++
			}
		}
	}

	slowPlans := 0
	check := func(pass string) {
		for name, list := range lists {
			list = append(append([]IP{}, list...), victim)
			plan := cached.PlanSpan(list)
			tally(plan)
			if slices.Contains(plan.cls, spanSlow) {
				slowPlans++
			}
			for round := uint64(1); round <= 2; round++ {
				w, ref := cached, uncached
				if round == 2 {
					w, ref = cached.WithFaults(outages), uncached.WithFaults(outages)
				}
				for _, vp := range vps {
					shared, fresh := w.PlannedSession(vp, plan), w.ProbeSpanSession(vp, list)
					for i, target := range list {
						got, single, want := shared.ICMP(i, round), fresh.ICMP(i, round), ref.ProbeICMP(vp, target, round)
						if got != want || single != want {
							t.Fatalf("%s, %s: vp=%s i=%d target=%v round=%d: shared plan %+v, single-use %+v, reference %+v",
								pass, name, vp.Name, i, target, round, got, single, want)
						}
					}
				}
			}
		}
	}
	for _, w := range []*World{cached, uncached} {
		if err := w.InjectHijack(victim.Prefix(), geo.Coord{Lat: -33.9, Lon: 151.2}, 0.6); err != nil {
			t.Fatal(err)
		}
	}
	check("hijacked")
	for _, w := range []*World{cached, uncached} {
		w.ClearHijack(victim.Prefix())
	}
	check("cleared")

	for _, kind := range []string{"hijacked", "anycast density miss", "anycast density hit", "silent", "non-representative", "greylistable"} {
		if seen[kind] == 0 {
			t.Errorf("no %s target planned", kind)
		}
	}
	if want := len(lists); slowPlans != want {
		t.Errorf("%d plans classed the hijacked /24 slow, want the %d built before the clear", slowPlans, want)
	}
	t.Logf("planned targets by kind: %v", seen)
}

// TestSessionTableConcurrent looks sessions up from 8 goroutines at once
// over overlapping vantage points, enough of them that the table grows
// while others read it: each key yields one *vpSession, built once - every
// goroutine sees the same ranking storage - a PlanetLab and a RIPE Atlas
// vantage point sharing an ID get two sessions, keys that compare equal
// (-0 and +0) share one, and a warm lookup allocates nothing.
func TestSessionTableConcurrent(t *testing.T) {
	cached, _ := sessionTestWorlds(t)
	pl := platform.PlanetLab(cities.Default()).VPs()
	ripe := platform.RIPEAtlas(cities.Default()).VPs()
	vps := append(append([]platform.VP{}, pl[:150]...), ripe[:150]...)
	shared := -1
	for i := range 150 {
		if pl[i].ID == ripe[i].ID && pl[i].Loc != ripe[i].Loc {
			shared = i
			break
		}
	}
	if shared < 0 {
		t.Fatal("no PlanetLab and RIPE Atlas vantage point share an ID")
	}
	zero := platform.VP{ID: 1 << 20, Name: "zero", Loc: geo.Coord{Lat: 0, Lon: 10}, LoadFactor: 1}
	negZero := zero
	negZero.Loc.Lat = math.Copysign(0, -1)
	vps = append(vps, zero, negZero)

	const goroutines = 8
	type seen struct {
		s      *vpSession
		ranked *[3]int16
	}
	got := make([][]seen, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]seen, len(vps))
			for k := range vps {
				i := (k*(2*g+1) + 37*g) % len(vps) // a different order per goroutine
				s := cached.session(vps[i])
				got[g][i] = seen{s, &s.ranked[0]}
			}
		}()
	}
	wg.Wait()
	for i, vp := range vps {
		for g := 1; g < goroutines; g++ {
			if got[g][i] != got[0][i] {
				t.Fatalf("vp %d (%s): goroutines 0 and %d saw sessions %+v and %+v", i, vp.Name, g, got[0][i], got[g][i])
			}
		}
	}
	if got[0][shared].s == got[0][150+shared].s {
		t.Errorf("PlanetLab %s and RIPE Atlas %s share ID %d and one session", pl[shared].Name, ripe[shared].Name, pl[shared].ID)
	}
	if n := len(vps); got[0][n-2].s != got[0][n-1].s {
		t.Error("latitudes -0 and +0 compare equal but got two sessions")
	}
	if allocs := testing.AllocsPerRun(100, func() { cached.session(vps[shared]) }); allocs != 0 {
		t.Errorf("a warm lookup allocates %v times, want 0", allocs)
	}
}
