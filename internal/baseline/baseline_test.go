package baseline

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
)

var (
	once sync.Once
	w    *netsim.World
	pl   *platform.Platform
	db   *cities.DB
)

func testbed(t *testing.T) (*netsim.World, *platform.Platform) {
	t.Helper()
	once.Do(func() {
		cfg := netsim.DefaultConfig()
		cfg.Unicast24s = 2000
		w = netsim.New(cfg)
		pl = platform.PlanetLab(cities.Default())
		db = cities.Default()
	})
	return w, pl
}

func measure(w *netsim.World, vps []platform.VP, target netsim.IP, rounds int) []core.Measurement {
	var ms []core.Measurement
	for _, vp := range vps {
		best := time.Duration(-1)
		for r := 1; r <= rounds; r++ {
			if reply := w.ProbeICMP(vp, target, uint64(r)); reply.OK() {
				if best < 0 || reply.RTT < best {
					best = reply.RTT
				}
			}
		}
		if best >= 0 {
			ms = append(ms, core.Measurement{VP: vp.Name, VPLoc: vp.Loc, RTT: best})
		}
	}
	return ms
}

func repOf(t *testing.T, name string) netsim.IP {
	t.Helper()
	as := w.Registry.MustByName(name)
	ip, _ := w.Representative(w.DeploymentsByASN(as.ASN)[0].Prefix)
	return ip
}

func unicastTarget(t *testing.T) netsim.IP {
	t.Helper()
	var out netsim.IP
	w.Prefixes(func(p netsim.Prefix24) {
		if out != 0 || w.IsAnycast(p) {
			return
		}
		ip, alive := w.Representative(p)
		if alive && w.ProbeICMP(pl.VPs()[0], ip, 1).OK() {
			out = ip
		}
	})
	if out == 0 {
		t.Fatal("no responsive unicast target")
	}
	return out
}

func TestCHAOSEnumeratesDNS(t *testing.T) {
	w, pl := testbed(t)
	target := repOf(t, "L-ROOT,US")
	res := CHAOSEnumerate(w, pl.VPs(), target, 3)
	if !res.Answered {
		t.Fatal("L-root did not answer CHAOS")
	}
	as := w.Registry.MustByName("L-ROOT,US")
	truth := len(w.DeploymentsByASN(as.ASN)[0].Replicas)
	// CHAOS reads the identity off the server: with catchment flap over
	// rounds it approaches the full deployment - at least as good as, and
	// usually better than, latency-based enumeration (the paper's point
	// about [25] reaching ~90% recall on DNS).
	if res.Count() < truth*3/4 {
		t.Errorf("CHAOS found %d of %d instances", res.Count(), truth)
	}
	if res.Count() > truth {
		t.Errorf("CHAOS found %d instances of a %d-replica deployment", res.Count(), truth)
	}
	igreedy := core.Analyze(db, measure(w, pl.VPs(), target, 3), core.Options{})
	t.Logf("truth %d, CHAOS %d, iGreedy %d", truth, res.Count(), igreedy.Count())
}

func TestCHAOSBlindBeyondDNS(t *testing.T) {
	// The baseline's limitation: nothing to enumerate on a non-DNS
	// deployment, even though it is anycast.
	w, pl := testbed(t)
	target := repOf(t, "MICROSOFT,US")
	res := CHAOSEnumerate(w, pl.VPs()[:40], target, 1)
	if res.Answered || res.Count() != 0 {
		t.Errorf("CHAOS answered on Microsoft: %+v", res)
	}
	// ...while the latency technique handles it fine.
	if !core.Detect(measure(w, pl.VPs(), target, 2)) {
		t.Error("latency detection failed on the same deployment")
	}
}

func TestSOLDetectMatchesCore(t *testing.T) {
	// The naive baseline and the optimized implementation must agree.
	w, pl := testbed(t)
	r := rand.New(rand.NewSource(3))
	targets := []netsim.IP{repOf(t, "CLOUDFLARENET,US"), unicastTarget(t)}
	for i := 0; i < 30; i++ {
		n := 5 + r.Intn(60)
		ms := make([]core.Measurement, n)
		for j := range ms {
			ms[j] = core.Measurement{
				VPLoc: geo.Coord{Lat: r.Float64()*140 - 70, Lon: r.Float64()*360 - 180},
				RTT:   time.Duration(1+r.Intn(120)) * time.Millisecond,
			}
		}
		if SOLDetect(ms) != core.Detect(ms) {
			t.Fatal("baseline and core detection disagree on a random instance")
		}
	}
	for _, target := range targets {
		ms := measure(w, pl.VPs(), target, 2)
		if SOLDetect(ms) != core.Detect(ms) {
			t.Fatalf("baseline and core detection disagree on %v", target)
		}
	}
}

func TestGeoDBSingleLocation(t *testing.T) {
	w, _ := testbed(t)
	g := BuildGeoDB(w, w.Registry, db)
	cf := w.Registry.MustByName("CLOUDFLARENET,US")
	deps := w.DeploymentsByASN(cf.ASN)
	first, ok := g.Lookup(deps[0].Prefix)
	if !ok {
		t.Fatal("database misses a CloudFlare prefix")
	}
	// The structural failure: one location for a deployment serving the
	// whole planet, and the same location for every prefix of the AS.
	if first.CC != "US" {
		t.Errorf("CloudFlare database location in %s, want its WHOIS country", first.CC)
	}
	for _, d := range deps[1:] {
		c, ok := g.Lookup(d.Prefix)
		if !ok || c.Key() != first.Key() {
			t.Fatal("database disagrees across prefixes of one AS")
		}
	}
	// Per-replica accuracy is necessarily terrible: at most one of the
	// deployment's cities can match.
	matches := 0
	for _, r := range deps[0].Replicas {
		if r.City.Key() == first.Key() {
			matches++
		}
	}
	if matches > 1 {
		t.Errorf("database matched %d replicas?!", matches)
	}
	if _, ok := g.Lookup(netsim.Prefix24(3)); ok {
		t.Error("database has an entry for an unallocated prefix")
	}
}

func TestCBGWorksOnUnicast(t *testing.T) {
	w, pl := testbed(t)
	target := unicastTarget(t)
	ms := measure(w, pl.VPs(), target, 3)
	if len(ms) < 10 {
		t.Fatalf("only %d samples", len(ms))
	}
	res := CBGLocate(ms)
	if !res.Feasible {
		t.Fatalf("CBG infeasible on unicast (violation %.0f km)", res.ViolationKm)
	}
	if !res.Loc.Valid() {
		t.Fatal("CBG returned an invalid location")
	}
	// The feasible point is a real constraint: inside every disk.
	for _, m := range ms {
		if !m.Disk().Contains(res.Loc) {
			t.Fatal("CBG point outside a constraint disk")
		}
	}
}

func TestCBGFailsOnAnycast(t *testing.T) {
	// The paper's Sec. 2.2 argument: triangulation assumes one location
	// and breaks on anycast.
	w, pl := testbed(t)
	target := repOf(t, "MICROSOFT,US")
	ms := measure(w, pl.VPs(), target, 3)
	res := CBGLocate(ms)
	if res.Feasible {
		t.Fatal("CBG found a single feasible location for a global anycast deployment")
	}
	if res.ViolationKm < 100 {
		t.Errorf("violation only %.0f km; should be grossly infeasible", res.ViolationKm)
	}
}

func TestCBGEmptyInput(t *testing.T) {
	if CBGLocate(nil).Feasible {
		t.Error("empty input should not be feasible")
	}
}
