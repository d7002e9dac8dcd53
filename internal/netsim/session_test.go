package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"anycastmap/internal/cities"
	"anycastmap/internal/detrand"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// sessionTestWorlds builds a small world and its reference
// (reference_test.go).
func sessionTestWorlds(t testing.TB) (*World, reference) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Unicast24s = 600
	return sessionWorldPair(cfg)
}

// sessionWorldPair builds the configured world and its reference.
func sessionWorldPair(cfg Config) (*World, reference) {
	w := New(cfg)
	return w, reference{w}
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

// note records the transition behind got, the world's reply to a
// probe of d's prefix.
func (rt rankTransitions) note(path string, w *World, vp platform.VP, d *Deployment, round uint64, got Reply) {
	if !got.OK() {
		return
	}
	n, pair := len(d.Replicas), w.session(vp).st.With(uint64(d.Prefix))
	counts := rt[path]
	if counts == nil {
		counts = new([2][3][3]int)
		rt[path] = counts
	}
	long := 0
	if n > 2 {
		long = 1
	}
	counts[long][stableRank(n, pair)][servingRank(n, pair, round)]++
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
// reply - kind and RTT, anycast and unicast, ICMP, TCP, DNS and a
// traceroute's last hop - and every replica selection is bit-identical to
// the model's reference (reference_test.go), in every sessionWorldShapes
// world. A probe ranks its deployment only as deep as the rank that
// serves it, and builds the base toward that one - another rank than the
// stable one only when a catchment flaps onto it - so the test
// also counts the rank transitions behind the replies it compared and
// fails unless every probe path built every kind of base (rankTransitions).
func TestSessionCacheBitIdentical(t *testing.T) {
	vps := sessionTestVPs()
	for _, shape := range sessionWorldShapes {
		t.Run(shape.name, func(t *testing.T) {
			w, ref := sessionWorldPair(shape.config())

			targets := sessionTestTargets(w)
			if len(targets) < 2000 {
				t.Fatalf("expected >2000 targets, got %d", len(targets))
			}

			seen := rankTransitions{}
			for _, vp := range vps {
				for ti, target := range targets {
					d, anycast := w.Deployment(target.Prefix())
					for round := uint64(1); round <= 3; round++ {
						got, want := w.ProbeICMP(vp, target, round), ref.ProbeICMP(vp, target, round)
						if got != want {
							t.Fatalf("ICMP vp=%s target=%v round=%d: world %+v, reference %+v", vp.Name, target, round, got, want)
						}
						if anycast {
							seen.note("ProbeICMP", w, vp, d, round, got)
						}
						// TCP and DNS are cheaper to spot-check on a slice.
						if ti%7 == 0 {
							got, want = w.ProbeTCP(vp, target, 80, round), ref.ProbeTCP(vp, target, 80, round)
							if got != want {
								t.Fatalf("TCP vp=%s target=%v round=%d: world %+v, reference %+v", vp.Name, target, round, got, want)
							}
							got, want = w.ProbeDNSUDP(vp, target, round), ref.ProbeDNSUDP(vp, target, round)
							if got != want {
								t.Fatalf("DNS vp=%s target=%v round=%d: world %+v, reference %+v", vp.Name, target, round, got, want)
							}
							sameTrace(t, w, ref, vp, target, round)
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
			for _, d := range w.Deployments() {
				if as, ok := w.Registry.ByASN(d.ASN); ok && pinnedFootprints[as.Name] != nil {
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
				if set, ok := w.Services.ByASN(d.ASN); ok && set.Len() > 0 {
					port = set.OpenPorts()[0]
				}
				for _, vp := range vps {
					for round := uint64(1); round <= 3; round++ {
						got, _ := w.ServingReplica(vp, d.Prefix, round)
						want, _ := ref.ServingReplica(vp, d.Prefix, round)
						if got.ID != want.ID || got.Loc != want.Loc {
							t.Fatalf("ServingReplica vp=%s prefix=%v round=%d: world %v, reference %v", vp.Name, d.Prefix, round, got.ID, want.ID)
						}
						same := func(path string, got, want Reply) {
							t.Helper()
							if got != want {
								t.Fatalf("%s vp=%s %v round=%d: world %+v, reference %+v", path, vp.Name, d, round, got, want)
							}
							seen.note(path, w, vp, d, round, got)
						}
						same("ProbeTCP", w.ProbeTCP(vp, d.rep, port, round), ref.ProbeTCP(vp, d.rep, port, round))
						same("ProbeDNSUDP", w.ProbeDNSUDP(vp, d.rep, round), ref.ProbeDNSUDP(vp, d.rep, round))
					}
				}
			}
			if pinned == 0 || pairs == 0 || len(lists) == len(w.Deployments()) {
				t.Fatalf("world lacks a shape under test: %d pinned, %d two-replica, %d distinct lists of %d deployments",
					pinned, pairs, len(lists), len(w.Deployments()))
			}
			seen.check(t, 10, "ProbeICMP", "ProbeTCP", "ProbeDNSUDP")
		})
	}
}

// TestBuildSessionAllocs pins a session build to no allocation, whatever
// the world holds: it ranks nothing, so 1,696 deployments cost what their
// longer-listed DeploymentInflation 2 twins cost, which is nothing.
func TestBuildSessionAllocs(t *testing.T) {
	vp := sessionTestVPs()[0]
	for _, inflation := range []float64{1, 2} {
		cfg := DefaultConfig()
		cfg.Unicast24s = 600
		cfg.DeploymentInflation = inflation
		w := New(cfg)
		allocs := testing.AllocsPerRun(10, func() {
			var s vpSession
			w.buildSession(&s, vp)
		})
		if allocs != 0 {
			t.Errorf("inflation %v: %v allocations per session build of %d deployments, want 0", inflation, allocs, len(w.deployments))
		}
	}
}

// maxSessionBytes is the most a vantage point's session may hold.
const maxSessionBytes = 100

// TestSessionResidentBytes holds a vantage point's session to what every
// probe from it reads and nothing per rank group, per deployment or per
// /24: no field of a vpSession refers to memory outside it - no slice,
// map, pointer, string or interface, at any depth - so its size is all
// it holds, the same in every world, and that is at most maxSessionBytes.
func TestSessionResidentBytes(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("vpSession%s is a %v: a session would hold memory beyond its own %d bytes", path, typ.Kind(), unsafe.Sizeof(vpSession{}))
		}
	}
	walk("", reflect.TypeFor[vpSession]())
	if got := unsafe.Sizeof(vpSession{}); got > maxSessionBytes {
		t.Errorf("a session holds %d B, want <= %d", got, maxSessionBytes)
	}
}

// TestReplicaGeometryFlat holds the world's flat replica geometry - what
// rank and servedBaseMs read in place of deployments and replicas -
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

// TestIndex32 holds the replica geometry's int32 indexes to their
// width: index32 passes the last index that fits and refuses, by name,
// the first that would wrap silently.
func TestIndex32(t *testing.T) {
	if index32(math.MaxInt32, "rankGroup.slots") != math.MaxInt32 {
		t.Error("index32 moved the last index that fits")
	}
	// On a 32-bit int no index can pass int32; the check is for 64-bit.
	if past := int64(math.MaxInt32) + 1; int64(int(past)) == past {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "rankGroup.slots") {
				t.Errorf("index32 past int32: recovered %q, want a panic naming rankGroup.slots", msg)
			}
		}()
		index32(int(past), "rankGroup.slots")
	}
}

// TestSessionCacheHijackBypass verifies the cache interplay with injected
// hijacks: a hijack shows up in ad hoc probes and traceroutes even from a
// session warmed before it, and clearing the hijack restores the original
// behavior, each equal to the reference.
func TestSessionCacheHijackBypass(t *testing.T) {
	w, ref := sessionTestWorlds(t)
	vps := sessionTestVPs()

	// Find a responsive unicast prefix.
	var prefix Prefix24
	var target IP
	w.Prefixes(func(p Prefix24) {
		if prefix != 0 {
			return
		}
		if w.IsAnycast(p) {
			return
		}
		ip, alive := w.Representative(p)
		if alive && w.ProbeICMP(vps[0], ip, 1).OK() { // warms the session pre-hijack
			prefix, target = p, ip
		}
	})
	if prefix == 0 {
		t.Fatal("no responsive unicast prefix found")
	}

	hijacker := geo.Coord{Lat: -33.9, Lon: 151.2} // far from most hosts
	if err := w.InjectHijack(prefix, hijacker, 1.0); err != nil {
		t.Fatal(err)
	}
	for _, vp := range vps {
		for round := uint64(1); round <= 3; round++ {
			got, want := w.ProbeICMP(vp, target, round), ref.ProbeICMP(vp, target, round)
			if got != want {
				t.Fatalf("hijacked ICMP vp=%s round=%d: world %+v, reference %+v", vp.Name, round, got, want)
			}
			sameTrace(t, w, ref, vp, target, round)
		}
	}

	w.ClearHijack(prefix)
	for _, vp := range vps {
		got, want := w.ProbeICMP(vp, target, 2), ref.ProbeICMP(vp, target, 2)
		if got != want {
			t.Fatalf("post-clear ICMP vp=%s: world %+v, reference %+v", vp.Name, got, want)
		}
		sameTrace(t, w, ref, vp, target, 2)
	}
}

// sameTrace fails unless the world's traceroute toward target ends - or
// comes back empty - as the reference's does.
func sameTrace(t *testing.T, w *World, ref reference, vp platform.VP, target IP, round uint64) {
	t.Helper()
	hops := w.Traceroute(vp, target, round)
	want, ok := ref.tracerouteRTT(vp, target, round)
	if ok != (hops != nil) || ok && hops[len(hops)-1].RTT != want {
		t.Fatalf("Traceroute vp=%s target=%v round=%d: %d hops %v, reference answers %v with %v", vp.Name, target, round, len(hops), hops, ok, want)
	}
}

// TestSessionSharedAcrossFaultViews checks that WithFaults views reuse the
// receiver's session table rather than rebuilding caches per view.
func TestSessionSharedAcrossFaultViews(t *testing.T) {
	w, _ := sessionTestWorlds(t)
	vp := sessionTestVPs()[0]
	w.session(vp) // warm
	view := w.WithFaults(nil)
	if view.sessions != w.sessions {
		t.Fatal("WithFaults view does not share the session table")
	}
	if key := (sessionKey{id: vp.ID, lat: vp.Loc.Lat, lon: vp.Loc.Lon}); find(*view.sessions.slots.Load(), key, key.hash()) == nil {
		t.Fatal("warmed session not visible through the fault view")
	}
}

// TestSpanSessionBitIdentical pins the span-resident hot path: a span
// session resolved over any window of the target list — every width, any
// alignment — answers bit-identically to the reference, for
// every reply kind the world produces (echo, the three greylistable
// errors, structural timeouts, anycast and unicast alike) - the anycast
// echoes whose base the span had to rebuild included (rankTransitions).
func TestSpanSessionBitIdentical(t *testing.T) {
	w, ref := sessionTestWorlds(t)
	vps := sessionTestVPs()

	targets := sessionTestTargets(w)

	seen := rankTransitions{}
	widths := []int{1, 17, 256, len(targets)}
	for _, width := range widths {
		for _, vp := range vps {
			for lo := 0; lo < len(targets); lo += width {
				hi := lo + width
				if hi > len(targets) {
					hi = len(targets)
				}
				span := w.ProbeSpanSession(vp, targets[lo:hi])
				for i := lo; i < hi; i++ {
					d, anycast := w.Deployment(targets[i].Prefix())
					for round := uint64(1); round <= 2; round++ {
						got, want := span.ICMP(i-lo, round), ref.ProbeICMP(vp, targets[i], round)
						if got != want {
							t.Fatalf("span[%d:%d] vp=%s target=%v round=%d: span %+v, reference %+v",
								lo, hi, vp.Name, targets[i], round, got, want)
						}
						if anycast {
							seen.note("SpanSession.ICMP", w, vp, d, round, got)
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
	span := w.ProbeSpanSession(vps[0], rev)
	for i, target := range rev {
		got, want := span.ICMP(i, 1), ref.ProbeICMP(vps[0], target, 1)
		if got != want {
			t.Fatalf("reversed span i=%d target=%v: span %+v, reference %+v", i, target, got, want)
		}
	}
}

// TestSpanSessionHijackBypass checks that a span resolved after a hijack
// injection routes the hijacked prefix down the live per-probe path, and
// that clearing the hijack restores fast-path behavior in later spans.
func TestSpanSessionHijackBypass(t *testing.T) {
	w, ref := sessionTestWorlds(t)
	vps := sessionTestVPs()

	var prefix Prefix24
	var target IP
	w.Prefixes(func(p Prefix24) {
		if prefix != 0 || w.IsAnycast(p) {
			return
		}
		if ip, alive := w.Representative(p); alive && w.ProbeICMP(vps[0], ip, 1).OK() {
			prefix, target = p, ip
		}
	})
	if prefix == 0 {
		t.Fatal("no responsive unicast prefix found")
	}

	hijacker := geo.Coord{Lat: -33.9, Lon: 151.2}
	if err := w.InjectHijack(prefix, hijacker, 1.0); err != nil {
		t.Fatal(err)
	}
	for _, vp := range vps {
		span := w.ProbeSpanSession(vp, []IP{target})
		for round := uint64(1); round <= 3; round++ {
			got, want := span.ICMP(0, round), ref.ProbeICMP(vp, target, round)
			if got != want {
				t.Fatalf("hijacked span vp=%s round=%d: span %+v, reference %+v", vp.Name, round, got, want)
			}
		}
	}

	w.ClearHijack(prefix)
	for _, vp := range vps {
		span := w.ProbeSpanSession(vp, []IP{target})
		got, want := span.ICMP(0, 2), ref.ProbeICMP(vp, target, 2)
		if got != want {
			t.Fatalf("post-clear span vp=%s: span %+v, reference %+v", vp.Name, got, want)
		}
	}
}

// TestSpanSessionSparseAndUnordered pins the resolver's slot lookup on
// the target lists a census span never is: strided samples, clusters with
// long gaps between them, descending and shuffled lists, repeated /24s,
// hosts that are not their /24's representative, anycast /24s, and
// addresses the world never allocated - 0.0.0.0, below and just past the
// slot index, far above it, at 224.0.0.0/24 and in the last /24 of the
// address space. Every reply equals the reference's, with and without an
// injected hijack.
func TestSpanSessionSparseAndUnordered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Unicast24s = 4000
	w, ref := sessionWorldPair(cfg)
	vps := sessionTestVPs()
	vps = []platform.VP{vps[0], vps[5], vps[7]} // two PlanetLab, one RIPE

	var reps, anycast []IP
	var first, last Prefix24
	w.Prefixes(func(p Prefix24) {
		if first == 0 {
			first = p
		}
		last = p
		ip, _ := w.Representative(p)
		reps = append(reps, ip)
		if w.IsAnycast(p) {
			anycast = append(anycast, ip)
		}
	})
	// A responsive unicast /24 to hijack in the second pass; every list
	// carries it.
	var victim IP
	for _, ip := range reps[len(reps)/2:] {
		if !w.IsAnycast(ip.Prefix()) && w.ProbeICMP(vps[0], ip, 1).OK() {
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
				span := w.ProbeSpanSession(vp, list)
				for i, target := range list {
					for round := uint64(1); round <= 2; round++ {
						got, want := span.ICMP(i, round), ref.ProbeICMP(vp, target, round)
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
	if err := w.InjectHijack(victim.Prefix(), geo.Coord{Lat: -33.9, Lon: 151.2}, 0.6); err != nil {
		t.Fatal(err)
	}
	check("hijacked")
}

// TestSpanPlanSharedBitIdentical pins what a census round does with a span
// plan: one plan per span, built once and read by every vantage point of
// the round and again by every vantage point of the next round, the second
// round through a WithFaults view (target outages) of the world the plan
// was built on. Every reply through a session over the shared plan equals
// the reply of a fresh single-use ProbeSpanSession and the reference's,
// over dense, sparse, unordered and repeated-/24 spans, silent and
// non-representative hosts, every greylistable reply kind and anycast
// density misses, first with a hijack injected before the plans are
// built, then with it cleared before the next plans are.
func TestSpanPlanSharedBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Unicast24s = 3000
	// The default host- and net-prohibited fractions (0.019% and 0.003%)
	// leave a world this size with no such host, and a classifier that
	// swapped their kinds would pass.
	cfg.AdminFilteredFraction, cfg.HostProhibitedFraction, cfg.NetProhibitedFraction = 0.02, 0.02, 0.02
	w := New(cfg)
	vps := sessionTestVPs()
	outages, err := NewFaultPlan(FaultConfig{Seed: 5, TargetOutageFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	var reps, nonRep, anycastHosts []IP
	var victim IP
	w.Prefixes(func(p Prefix24) {
		ip, _ := w.Representative(p)
		reps = append(reps, ip)
		if len(reps)%7 == 0 {
			nonRep = append(nonRep, p.Host(ip.HostByte()^0x55))
		}
		if w.IsAnycast(p) {
			for h := 1; h < 60; h += 4 { // the representative, density hits and misses
				anycastHosts = append(anycastHosts, p.Host(byte(h)))
			}
		} else if victim == 0 && len(reps) > 1500 && w.ProbeICMP(vps[0], ip, 1).OK() {
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
			switch d, anycast := w.Deployment(p); {
			case slices.Contains(pl.hijacked, int32(i)):
				seen["hijacked"]++
			case anycast && target != d.rep && pl.cls[i] == spanTimeout:
				seen["anycast density miss"]++
			case anycast && target != d.rep:
				seen["anycast density hit"]++
			case anycast:
				continue
			case pl.cls[i] == spanTimeout && target == w.unicast[-(w.slots[p-basePrefix]+1)].rep:
				seen["silent"]++
			case pl.cls[i] == spanTimeout:
				seen["non-representative"]++
			case pl.cls[i] != spanUniEcho:
				seen[ReplyKind(pl.cls[i]).String()]++
			}
		}
	}

	hijackPlans := 0
	check := func(pass string) {
		for name, list := range lists {
			list = append(append([]IP{}, list...), victim)
			plan := w.PlanSpan(list)
			tally(plan)
			if len(plan.hijacked) > 0 {
				hijackPlans++
			}
			for round := uint64(1); round <= 2; round++ {
				view := w
				if round == 2 {
					view = w.WithFaults(outages)
				}
				ref := reference{view}
				for _, vp := range vps {
					shared, fresh := view.PlannedSession(vp, plan), view.ProbeSpanSession(vp, list)
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
	if err := w.InjectHijack(victim.Prefix(), geo.Coord{Lat: -33.9, Lon: 151.2}, 0.6); err != nil {
		t.Fatal(err)
	}
	check("hijacked")
	w.ClearHijack(victim.Prefix())
	check("cleared")

	for _, kind := range []string{"hijacked", "anycast density miss", "anycast density hit", "silent", "non-representative",
		ReplyAdminFiltered.String(), ReplyHostProhibited.String(), ReplyNetProhibited.String()} {
		if seen[kind] == 0 {
			t.Errorf("no %s target planned", kind)
		}
	}
	if want := len(lists); hijackPlans != want {
		t.Errorf("%d plans listed the hijacked /24, want the %d built before the clear", hijackPlans, want)
	}
	t.Logf("planned targets by kind: %v", seen)
}

// TestSessionTableConcurrent looks sessions up from 8 goroutines at once
// over overlapping vantage points, enough of them that the table grows
// while others read it: each key yields one *vpSession, built before any
// goroutine reads it - the race detector sees every read - a PlanetLab and a RIPE Atlas
// vantage point sharing an ID get two sessions, keys that compare equal
// (-0 and +0) share one, and a warm lookup allocates nothing.
func TestSessionTableConcurrent(t *testing.T) {
	w, _ := sessionTestWorlds(t)
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
		s  *vpSession
		st detrand.State // what the goroutine read of the session: built before it was handed out
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
				s := w.session(vps[i])
				got[g][i] = seen{s, s.st}
			}
		}()
	}
	wg.Wait()
	for i, vp := range vps {
		if want := detrand.Begin(w.cfg.Seed, uint64(vp.ID)); got[0][i].st != want {
			t.Fatalf("vp %d (%s): a goroutine read the session before its build", i, vp.Name)
		}
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
	if allocs := testing.AllocsPerRun(100, func() { w.session(vps[shared]) }); allocs != 0 {
		t.Errorf("a warm lookup allocates %v times, want 0", allocs)
	}
}
