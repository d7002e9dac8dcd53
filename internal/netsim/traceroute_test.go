package netsim

import (
	"testing"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

func responsiveUnicast(t *testing.T, w *World, vp platform.VP) IP {
	t.Helper()
	for _, p := range w.unicastPrefixes() {
		rep, _ := w.Representative(p)
		if w.ProbeICMP(vp, rep, 0).OK() && w.Traceroute(vp, rep, 0) != nil {
			return rep
		}
	}
	t.Fatal("no responsive unicast target")
	return 0
}

func TestTracerouteShape(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	target := responsiveUnicast(t, w, vp)
	hops := w.Traceroute(vp, target, 0)
	if len(hops) < 3 || len(hops) > 13 {
		t.Fatalf("path has %d hops", len(hops))
	}
	// TTLs increase by one, RTTs are nondecreasing, terminus is the target.
	var prev time.Duration
	for i, h := range hops {
		if h.TTL != i+1 {
			t.Fatalf("hop %d has TTL %d", i, h.TTL)
		}
		if h.RTT < prev {
			t.Fatalf("RTT decreased at hop %d: %v < %v", i, h.RTT, prev)
		}
		prev = h.RTT
	}
	if hops[len(hops)-1].Router != target {
		t.Error("last hop is not the target")
	}
	// Intermediate routers live in the benchmarking range.
	for _, h := range hops[:len(hops)-1] {
		if b := byte(uint32(h.Router) >> 24); b != 198 {
			t.Errorf("router %v outside 198.18.0.0/15", h.Router)
		}
	}
}

func TestTracerouteStableAndShared(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	target := responsiveUnicast(t, w, vp)
	a := w.Traceroute(vp, target, 0)
	b := w.Traceroute(vp, target, 0)
	shared, minLen := PathDivergence(a, b)
	if shared != minLen || len(a) != len(b) {
		t.Error("identical traceroutes diverged")
	}
}

func TestTracerouteUnresponsive(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	if w.Traceroute(vp, IP(42), 0) != nil {
		t.Error("traceroute answered outside the allocated space")
	}
}

func TestTracerouteRevealsHijack(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	target := responsiveUnicast(t, w, vp)
	baseline := w.Traceroute(vp, target, 0)

	rogue := cities.Default().MustByName("Tokyo", "JP").Loc
	if geo.DistanceKm(vp.Loc, rogue) < 3000 {
		rogue = cities.Default().MustByName("Sao Paulo", "BR").Loc
	}
	if err := w.InjectHijack(target.Prefix(), rogue, 1.0); err != nil {
		t.Fatal(err)
	}
	defer w.ClearHijack(target.Prefix())

	after := w.Traceroute(vp, target, 0)
	shared, minLen := PathDivergence(baseline, after)
	if shared >= minLen {
		t.Fatalf("hijacked path identical to baseline (%d shared of %d)", shared, minLen)
	}
	// The terminus RTT reflects the longer detour to the rogue site (the
	// endpoint moved, so the propagation component changed).
	if after[len(after)-1].RTT == baseline[len(baseline)-1].RTT {
		t.Error("hijacked path has identical end-to-end RTT")
	}
}

func TestPathDivergenceEdgeCases(t *testing.T) {
	if s, m := PathDivergence(nil, nil); s != 0 || m != 0 {
		t.Error("empty paths should share nothing")
	}
	a := []Hop{{TTL: 1, Router: 1}, {TTL: 2, Router: 2}}
	if s, m := PathDivergence(a, a[:1]); s != 1 || m != 1 {
		t.Errorf("prefix paths: shared=%d min=%d", s, m)
	}
}

func BenchmarkTraceroute(b *testing.B) {
	w := New(testConfig())
	vp := platform.PlanetLab(cities.Default()).VPs()[0]
	target, _ := w.Representative(w.Deployments()[0].Prefix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Traceroute(vp, target, 0)
	}
}
