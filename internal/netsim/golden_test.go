package netsim

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden of each golden test run from this checkout")

// TestReplyDigestGolden pins the substrate across commits. The bit-identity
// tests compare the probe path with the model's reference of the same
// checkout (reference_test.go), so a change that moves both passes them;
// this one compares both with a digest computed at an earlier commit. The committed
// value was computed at a580fd2 (PR 21) - the parent of the commit that
// added this test - before any netsim code changed. A change that means to
// move the model's replies regenerates it with
//
//	go test -run TestReplyDigestGolden ./internal/netsim -update
//
// and says so; any other change must leave it alone.
func TestReplyDigestGolden(t *testing.T) {
	const path = "testdata/reply_digest.golden"
	w, ref := sessionTestWorlds(t)
	got := replyDigest(w, sessionTestTargets(w))
	if want := replyDigest(ref, sessionTestTargets(w)); want != got {
		t.Fatalf("world digests to %s, reference to %s", got, want)
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("reply digest %s, golden %s: the model's replies moved", got, strings.TrimSpace(string(want)))
	}
}

// replyDigest is FNV-1a over (kind, RTT) of a fixed sweep of the world:
// the PlanetLab+RIPE vantage-point mix against every representative in
// rounds 1-4, ICMP everywhere and TCP/80 plus DNS/UDP on every seventh
// target.
func replyDigest(pr prober, targets []IP) string {
	h := fnv.New64a()
	var buf [9]byte
	add := func(r Reply) {
		buf[0] = byte(r.Kind)
		binary.LittleEndian.PutUint64(buf[1:], uint64(r.RTT))
		h.Write(buf[:])
	}
	for _, vp := range sessionTestVPs() {
		for ti, target := range targets {
			for round := uint64(1); round <= 4; round++ {
				add(pr.ProbeICMP(vp, target, round))
				if ti%7 == 0 {
					add(pr.ProbeTCP(vp, target, 80, round))
					add(pr.ProbeDNSUDP(vp, target, round))
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// worldDigestShapes are the worlds TestWorldDigestGolden pins: the default
// seed, another seed at another size, and a drifted, inflated world whose
// replica draws keep more candidates (Evolve's path).
var worldDigestShapes = []struct {
	seed, epoch uint64
	unicast     int
	inflation   float64
}{
	{seed: 2015, unicast: 4000, inflation: 1},
	{seed: 7, unicast: 1500, inflation: 1},
	{seed: 41, epoch: 3, unicast: 300, inflation: 1.6},
}

// TestWorldDigestGolden pins everything New builds, across commits: a
// change to how the world is laid out (which draw feeds which field, in
// which order replicas are chosen, how two equal keys are ordered) must
// leave every deployment, every piece of the flat replica geometry, every
// unicast host and the slot index as they were. The committed digests were
// written at dc862da, before New changed; a change that means to move the
// world rewrites them with
//
//	go test -run TestWorldDigestGolden ./internal/netsim -update
//
// and says so.
func TestWorldDigestGolden(t *testing.T) {
	const path = "testdata/world_digest.golden"
	var lines []string
	for _, s := range worldDigestShapes {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Epoch, cfg.Unicast24s, cfg.DeploymentInflation = s.seed, s.epoch, s.unicast, s.inflation
		lines = append(lines, fmt.Sprintf("seed=%d epoch=%d unicast24s=%d inflation=%v %s",
			s.seed, s.epoch, s.unicast, s.inflation, worldDigest(New(cfg))))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d shapes, the test %d", len(wantLines), len(lines))
	}
	for i, line := range lines {
		got, want := strings.Fields(line), strings.Fields(wantLines[i])
		if len(got) != len(want) {
			t.Errorf("shape %d: got %q, golden %q", i, line, wantLines[i])
			continue
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("%s: %s moved, golden %s", strings.Join(got[:4], " "), got[j], want[j])
			}
		}
	}
}

// worldDigest is FNV-1a over every table New builds, part by part, so a
// mismatch names the part that moved: deployments (prefix, ASN, replica
// IDs, city keys and locations, density, representative, Alexa flag),
// places, placeVecs, rankGroups, geom, endAccess, unicast hosts (location,
// cosLat, city, class, representative, ever-alive) and slots.
func worldDigest(w *World) string {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	var parts []string
	part := func(name string, fill func()) {
		h.Reset()
		fill()
		parts = append(parts, fmt.Sprintf("%s:%016x", name, h.Sum64()))
	}
	part("deployments", func() {
		for i, d := range w.deployments {
			u64(uint64(i))
			u64(uint64(d.idx))
			u64(uint64(d.Prefix))
			u64(uint64(d.ASN))
			f64(d.Density)
			u64(uint64(d.rep))
			if d.HostsAlexa {
				u64(1)
			} else {
				u64(0)
			}
			u64(uint64(len(d.Replicas)))
			for _, r := range d.Replicas {
				u64(uint64(r.ID))
				h.Write([]byte(r.City.Key()))
				f64(r.Loc.Lat)
				f64(r.Loc.Lon)
			}
		}
		for _, as := range w.Registry.All() {
			for _, d := range w.DeploymentsByASN(as.ASN) {
				u64(uint64(d.idx))
			}
		}
	})
	part("places", func() {
		for _, p := range w.places {
			fmt.Fprintf(h, "%x|", p) // %x prints each float field's exact bits
		}
	})
	part("placeVecs", func() {
		for _, v := range w.placeVecs {
			f64(v[0])
			f64(v[1])
			f64(v[2])
		}
	})
	part("rankGroups", func() {
		for _, g := range w.rankGroups {
			u64(uint64(g.first))
			u64(uint64(len(g.slots)))
			for _, s := range g.slots {
				u64(uint64(s))
			}
		}
	})
	part("geom", func() {
		for _, g := range w.geom {
			u64(g.prefix)
			u64(uint64(g.group))
			u64(uint64(g.placeBase))
			u64(uint64(g.access))
		}
	})
	part("endAccess", func() {
		for _, v := range w.endAccess {
			f64(v)
		}
	})
	part("unicast", func() {
		hc := hostCities()
		for _, u := range w.unicast {
			// The world places only the hosts that answer and keeps no
			// city; placeHost, the draw that places them, gives a silent
			// host's position and every host's city, so the digest reads
			// as it did when every host held all three.
			site, city := placeHost(w.seedSt.With(uint64(u.rep.Prefix())), hc)
			if u.class.answers() {
				site = *w.site(&u)
			}
			f64(site.loc.Lat)
			f64(site.loc.Lon)
			f64(site.cosLat)
			u64(uint64(u.rep))
			u64(uint64(city))
			u64(uint64(u.class))
			if u.everAlive {
				u64(1)
			} else {
				u64(0)
			}
		}
	})
	part("slots", func() {
		for _, s := range w.slots {
			u64(uint64(int64(s)))
		}
	})
	return strings.Join(parts, " ")
}
