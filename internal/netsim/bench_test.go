package netsim

import (
	"sync"
	"testing"
	"unsafe"

	"anycastmap/internal/cities"
	"anycastmap/internal/platform"
)

// The probe-path benchmarks run against one shared mid-size world; building
// it is far more expensive than any measured operation, so it is built once.
var (
	benchOnce    sync.Once
	benchWorld   *World
	benchVPs     []platform.VP
	benchTargets []IP // representative per /24, anycast and unicast interleaved
)

func benchSetup(b *testing.B) (*World, []platform.VP, []IP) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Unicast24s = 8000
		benchWorld = New(cfg)
		benchVPs = platform.PlanetLab(cities.Default()).VPs()
		benchWorld.Prefixes(func(p Prefix24) {
			if ip, alive := benchWorld.Representative(p); alive {
				benchTargets = append(benchTargets, ip)
			}
		})
	})
	b.ResetTimer()
	return benchWorld, benchVPs, benchTargets
}

// BenchmarkProbeICMP measures the census inner loop: one ICMP probe against
// a mixed anycast/unicast target population, cycling vantage points so the
// per-VP caches see realistic reuse.
func BenchmarkProbeICMP(b *testing.B) {
	w, vps, targets := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.ProbeICMP(vps[i%8], targets[i%len(targets)], uint64(i%4+1))
	}
}

// BenchmarkServingReplica measures BGP-like replica selection for anycast
// deployments (the catchment computation).
func BenchmarkServingReplica(b *testing.B) {
	w, vps, _ := benchSetup(b)
	deps := w.Deployments()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.servingReplica(vps[i%8], deps[i%len(deps)], uint64(i%4+1))
	}
}

// BenchmarkPathRTT measures the latency model for a fixed (VP, endpoint)
// pair across rounds: the propagation/stretch/access part is static, only
// the queueing jitter varies.
func BenchmarkPathRTT(b *testing.B) {
	w, vps, targets := benchSetup(b)
	d := w.Deployments()[0]
	r := d.Replicas[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.pathRTT(vps[i%8], uint64(d.Prefix), r.Loc, uint64(r.ID), targets[i%len(targets)], uint64(i%4+1))
	}
}

// BenchmarkProbeTCP measures the portscan probe path.
func BenchmarkProbeTCP(b *testing.B) {
	w, vps, targets := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.ProbeTCP(vps[i%8], targets[i%len(targets)], 80, uint64(i%4+1))
	}
}

// BenchmarkProbeTCPParallel is BenchmarkProbeTCP from every P at once over
// 64 vantage points: each probe looks its vantage point's session up, so
// this is the session table's lookup path under contention.
func BenchmarkProbeTCPParallel(b *testing.B) {
	w, vps, targets := benchSetup(b)
	vps = vps[:64]
	for _, vp := range vps {
		w.session(vp) // build outside the timed loop: only lookups are timed
	}
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			w.ProbeTCP(vps[i%len(vps)], targets[i%len(targets)], 80, uint64(i%4+1))
		}
	})
}

// BenchmarkProbeSpanSession measures span resolution alone - what a
// (VP, span) unit pays before its first probe - per target, on the two
// shapes that matter: a dense census span (up to 16,384 consecutive
// targets) and a sparse ascending sample of 88 targets spread over the
// whole world, each at two world sizes. Resolution costs what the span
// costs: sparse88's ns/target must not grow with the world.
func BenchmarkProbeSpanSession(b *testing.B) {
	vp := platform.PlanetLab(cities.Default()).VPs()[0]
	for _, world := range []struct {
		name       string
		unicast24s int
	}{{"world8k", 8000}, {"world64k", 64000}} {
		cfg := DefaultConfig()
		cfg.Unicast24s = world.unicast24s
		w := New(cfg)
		var all []IP
		w.Prefixes(func(p Prefix24) {
			if ip, alive := w.Representative(p); alive {
				all = append(all, ip)
			}
		})
		dense := all[:min(16384, len(all))]
		sparse := make([]IP, 88)
		for i := range sparse {
			sparse[i] = all[i*len(all)/len(sparse)]
		}
		w.session(vp) // build the VP's session outside the timed loop
		for _, span := range []struct {
			name    string
			targets []IP
		}{{"dense16k", dense}, {"sparse88", sparse}} {
			b.Run(span.name+"/"+world.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ss := w.ProbeSpanSession(vp, span.targets)
					if len(ss.base) != len(span.targets) {
						b.Fatal("span not resolved")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(span.targets)), "ns/target")
			})
		}
	}
}

// BenchmarkBuildSession measures what a vantage point costs before its
// first probe: one session build - every rank group's three nearest
// replicas ranked; no RTT base is drawn, a (VP, span) unit draws the ones
// it reads - for a PlanetLab and a RIPE Atlas vantage point. B/op counts
// what a build allocates; B/session is what stays resident per vantage
// point for the life of the world, and haversines/session how many near
// ties the build settled by distance (rankByDistance) rather than by dot
// product.
func BenchmarkBuildSession(b *testing.B) {
	w, _, _ := benchSetup(b)
	for _, p := range []struct {
		name string
		vp   platform.VP
	}{
		{"planetlab", platform.PlanetLab(cities.Default()).VPs()[0]},
		{"ripe", platform.RIPEAtlas(cities.Default()).VPs()[0]},
	} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			var s vpSession
			var scratch []float64
			haversines := 0
			for i := 0; i < b.N; i++ {
				s = vpSession{}
				haversines += w.buildSession(&s, p.vp, &scratch)
			}
			b.ReportMetric(float64(unsafe.Sizeof(s)+s.residentBytes()), "B/session")
			b.ReportMetric(float64(haversines)/float64(b.N), "haversines/session")
		})
	}
}

// benchWorldSink keeps BenchmarkNew's world reachable.
var benchWorldSink *World

// BenchmarkNew builds the world of the census-wide benchmark workload
// (25,000 unicast /24s beside the 1,696-/24 anycast catalogue): set-up's
// first and largest step.
func BenchmarkNew(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Unicast24s = 25000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchWorldSink = New(cfg)
	}
}
