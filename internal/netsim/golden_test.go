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
