package netsim

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/reply_digest.golden from this checkout's replies")

// TestReplyDigestGolden pins the substrate across commits. The bit-identity
// tests compare the cached probe path with the uncached reference world
// (newUncached) of the same checkout, so a change that moves both passes them; this one
// compares both with a digest computed at an earlier commit. The committed
// value was computed at a580fd2 (PR 21) - the parent of the commit that
// added this test - before any netsim code changed. A change that means to
// move the model's replies regenerates it with
//
//	go test -run TestReplyDigestGolden ./internal/netsim -update
//
// and says so; any other change must leave it alone.
func TestReplyDigestGolden(t *testing.T) {
	const path = "testdata/reply_digest.golden"
	cached, uncached := sessionTestWorlds(t)
	got := replyDigest(cached)
	if ref := replyDigest(uncached); ref != got {
		t.Fatalf("cached world digests to %s, uncached world to %s", got, ref)
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
func replyDigest(w *World) string {
	h := fnv.New64a()
	var buf [9]byte
	add := func(r Reply) {
		buf[0] = byte(r.Kind)
		binary.LittleEndian.PutUint64(buf[1:], uint64(r.RTT))
		h.Write(buf[:])
	}
	targets := sessionTestTargets(w)
	for _, vp := range sessionTestVPs() {
		for ti, target := range targets {
			for round := uint64(1); round <= 4; round++ {
				add(w.ProbeICMP(vp, target, round))
				if ti%7 == 0 {
					add(w.ProbeTCP(vp, target, 80, round))
					add(w.ProbeDNSUDP(vp, target, round))
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
