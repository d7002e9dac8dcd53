package netsim

import (
	"math"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

func TestProbeICMPPhysicalInvariant(t *testing.T) {
	// Every echo RTT must be at least the fiber propagation RTT to the
	// answering endpoint: the detection technique is sound only if disks
	// built from RTTs contain the true replica.
	w := testWorld(t)
	pl := platform.PlanetLab(cities.Default())
	for _, vp := range pl.VPs()[:20] {
		for _, d := range w.Deployments()[:50] {
			rep, _ := w.ServingReplica(vp, d.Prefix, 0)
			target, _ := w.Representative(d.Prefix)
			reply := w.ProbeICMP(vp, target, 0)
			if !reply.OK() {
				continue // transient loss
			}
			if reply.RTT < geo.PropagationRTT(vp.Loc, rep.Loc) {
				t.Fatalf("RTT %v beats light in fiber to %v (%v)",
					reply.RTT, rep.City, geo.PropagationRTT(vp.Loc, rep.Loc))
			}
			disk := geo.DiskFromRTT(vp.Loc, reply.RTT)
			if !disk.Contains(rep.Loc) {
				t.Fatalf("measurement disk %v does not contain serving replica at %v", disk, rep.Loc)
			}
		}
	}
}

func TestProbeDeterministicPerRound(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	target, _ := w.Representative(w.Deployments()[3].Prefix)
	a := w.ProbeICMP(vp, target, 1)
	b := w.ProbeICMP(vp, target, 1)
	if a != b {
		t.Error("same probe in the same round should be identical")
	}
	c := w.ProbeICMP(vp, target, 2)
	if a.RTT == c.RTT {
		t.Error("different rounds should see different jitter (almost surely)")
	}
}

func TestServingReplicaStable(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	d := w.Deployments()[0]
	r1, ok := w.ServingReplica(vp, d.Prefix, 0)
	if !ok {
		t.Fatal("no serving replica for a deployment")
	}
	r2, _ := w.ServingReplica(vp, d.Prefix, 0)
	if r1.ID != r2.ID {
		t.Error("BGP selection must be stable per (vantage, prefix, round)")
	}
	if _, ok := w.ServingReplica(vp, w.unicastPrefixes()[0], 0); ok {
		t.Error("unicast prefix should have no serving replica")
	}
}

func TestServingReplicaMostlyNearest(t *testing.T) {
	// BGP usually picks the geographically nearest replica, but not
	// always (the paper's premise that proximity is only loose).
	w := testWorld(t)
	pl := platform.PlanetLab(cities.Default())
	nearest, total := 0, 0
	for _, vp := range pl.VPs() {
		for _, d := range w.Deployments()[:30] {
			r, _ := w.ServingReplica(vp, d.Prefix, 0)
			best := d.Replicas[0]
			bd := geo.DistanceKm(vp.Loc, best.Loc)
			for _, cand := range d.Replicas[1:] {
				if dd := geo.DistanceKm(vp.Loc, cand.Loc); dd < bd {
					best, bd = cand, dd
				}
			}
			if r.ID == best.ID {
				nearest++
			}
			total++
		}
	}
	frac := float64(nearest) / float64(total)
	if frac < 0.55 || frac > 0.85 {
		t.Errorf("nearest-replica fraction = %.2f, want ~0.70", frac)
	}
}

func TestUnicastReplies(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	var echo, timeout, grey int
	for i, p := range w.unicastPrefixes() {
		if i >= 2000 {
			break
		}
		rep, _ := w.Representative(p)
		reply := w.ProbeICMP(vp, rep, 0)
		switch {
		case reply.Kind == ReplyEcho:
			echo++
		case reply.Kind == ReplyTimeout:
			timeout++
		case reply.Kind.Greylistable():
			grey++
			if reply.RTT <= 0 {
				t.Fatal("ICMP errors carry an RTT (they come from a router)")
			}
		}
	}
	if echo < 700 || echo > 950 {
		t.Errorf("echo replies = %d of 2000, want ~830 (41.5%% of the full space)", echo)
	}
	if grey == 0 {
		t.Error("no greylistable errors observed")
	}
	if timeout == 0 {
		t.Error("no timeouts observed")
	}
}

func TestNonRepresentativeUnicastSilent(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	p := w.unicastPrefixes()[1]
	rep, _ := w.Representative(p)
	other := p.Host(rep.HostByte() + 1)
	if got := w.ProbeICMP(vp, other, 0); got.Kind != ReplyTimeout {
		t.Errorf("non-representative unicast host answered: %v", got)
	}
}

func TestUnknownPrefixTimesOut(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	if got := w.ProbeICMP(vp, IP(42), 0); got.Kind != ReplyTimeout {
		t.Errorf("probe outside the allocated space answered: %v", got)
	}
	if got := w.ProbeTCP(vp, IP(42), 80, 0); got.Kind != ReplyTimeout {
		t.Errorf("TCP probe outside the allocated space answered: %v", got)
	}
}

func TestMinOverRoundsShrinks(t *testing.T) {
	// Combining censuses by minimum RTT must never increase the estimate
	// and usually decreases it (Fig. 12's combination gain).
	w := testWorld(t)
	vp := pickVP(t)
	target, _ := w.Representative(w.Deployments()[5].Prefix)
	first := w.ProbeICMP(vp, target, 0).RTT
	min := first
	for round := uint64(1); round < 4; round++ {
		if r := w.ProbeICMP(vp, target, round).RTT; r < min {
			min = r
		}
	}
	if min > first {
		t.Error("minimum over rounds exceeds first sample")
	}
}

func TestProtocolMatrix(t *testing.T) {
	// Fig. 6: ICMP has high recall everywhere; transport and application
	// probes answer only where the service exists.
	w := testWorld(t)
	vp := pickVP(t)
	get := func(name string) (IP, int) {
		as := w.Registry.MustByName(name)
		d := w.DeploymentsByASN(as.ASN)[0]
		rep, _ := w.Representative(d.Prefix)
		return rep, as.ASN
	}

	odIP, _ := get("OPENDNS,US")
	msIP, _ := get("MICROSOFT,US")
	cfIP, _ := get("CLOUDFLARENET,US")

	if !w.ProbeICMP(vp, odIP, 0).OK() || !w.ProbeICMP(vp, msIP, 0).OK() || !w.ProbeICMP(vp, cfIP, 0).OK() {
		t.Fatal("ICMP should reach all anycast deployments")
	}
	if !w.ProbeDNSUDP(vp, odIP, 0).OK() {
		t.Error("OpenDNS must answer DNS/UDP")
	}
	if w.ProbeDNSUDP(vp, msIP, 0).OK() {
		t.Error("Microsoft must not answer DNS/UDP")
	}
	if !w.ProbeDNSTCP(vp, odIP, 0).OK() {
		t.Error("OpenDNS must answer DNS/TCP")
	}
	if !w.ProbeTCP(vp, cfIP, 80, 0).OK() {
		t.Error("CloudFlare must answer TCP-80")
	}
	if w.ProbeTCP(vp, cfIP, 81, 0).OK() {
		t.Error("CloudFlare must not answer TCP-81")
	}
}

func TestSourceDropProb(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	if p := w.SourceDropProb(vp, 1000); p != 0 {
		t.Errorf("drop probability at 1k pps = %v, want 0 (the slowed-down rate is safe)", p)
	}
	slow := w.SourceDropProb(vp, 5000)
	fast := w.SourceDropProb(vp, 50000)
	if fast < slow {
		t.Error("drop probability should grow with rate")
	}
	if fast > 0.9 {
		t.Errorf("drop probability capped at 0.9, got %v", fast)
	}
	if w.SourceDropProb(vp, 1e9) != 0.9 {
		t.Error("extreme rate should hit the cap")
	}
}

func TestReplyKindStrings(t *testing.T) {
	for k, want := range map[ReplyKind]string{
		ReplyTimeout: "timeout", ReplyEcho: "echo",
		ReplyAdminFiltered: "admin-filtered(13)", ReplyHostProhibited: "host-prohibited(10)",
		ReplyNetProhibited: "net-prohibited(9)", ReplyKind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("ReplyKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if ReplyEcho.Greylistable() || ReplyTimeout.Greylistable() {
		t.Error("echo/timeout are not greylistable")
	}
	if !ReplyAdminFiltered.Greylistable() {
		t.Error("admin-filtered must be greylistable")
	}
}

func TestAnycastPrefixesSorted(t *testing.T) {
	w := testWorld(t)
	ps := w.AnycastPrefixes()
	if len(ps) != len(w.Deployments()) {
		t.Fatal("AnycastPrefixes length mismatch")
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] <= ps[i-1] {
			t.Fatal("AnycastPrefixes not sorted")
		}
	}
}

// BenchmarkProbeICMPAnycast measures an ad hoc ICMP probe of a deployment's
// representative per replica-count bucket - 1, 2-3, 4-16 and 17 or more
// replicas - since an answered anycast probe ranks its deployment's
// replicas (rank): ns/probe is what one costs at that list length. It
// cycles over the bucket's deployments, eight PlanetLab vantage points and
// four rounds, so every serving rank is drawn.
func BenchmarkProbeICMPAnycast(b *testing.B) {
	w := New(testConfig())
	vps := platform.PlanetLab(cities.Default()).VPs()[:8]
	for _, bucket := range []struct {
		name     string
		min, max int
	}{{"replicas=1", 1, 1}, {"replicas=2-3", 2, 3}, {"replicas=4-16", 4, 16}, {"replicas=17+", 17, math.MaxInt}} {
		var targets []IP
		for _, d := range w.Deployments() {
			if n := len(d.Replicas); n >= bucket.min && n <= bucket.max {
				targets = append(targets, d.rep)
			}
		}
		b.Run(bucket.name, func(b *testing.B) {
			if len(targets) == 0 {
				b.Skip("no deployment in the bucket")
			}
			for _, vp := range vps {
				w.session(vp) // build outside the timed loop
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probeSink = w.ProbeICMP(vps[i%len(vps)], targets[i%len(targets)], uint64(i/len(vps)%4+1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
			b.ReportMetric(float64(len(targets)), "deployments")
		})
	}
}

// probeSink keeps the probe benchmarks' replies reachable.
var probeSink Reply

func BenchmarkProbeICMPUnicast(b *testing.B) {
	w := New(testConfig())
	vp := platform.PlanetLab(cities.Default()).VPs()[0]
	target, _ := w.Representative(w.unicastPrefixes()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ProbeICMP(vp, target, uint64(i))
	}
}

func TestInjectHijackValidation(t *testing.T) {
	w := testWorld(t)
	anycast := w.Deployments()[0].Prefix
	loc := w.Cities.MustByName("Moscow", "RU").Loc
	if err := w.InjectHijack(anycast, loc, 0.4); err == nil {
		t.Error("hijack of an anycast prefix accepted")
	}
	if err := w.InjectHijack(Prefix24(1), loc, 0.4); err == nil {
		t.Error("hijack of an unallocated prefix accepted")
	}
	uni := w.unicastPrefixes()[0]
	for _, bad := range []float64{0, -1, 1.5} {
		if err := w.InjectHijack(uni, loc, bad); err == nil {
			t.Errorf("catchment %v accepted", bad)
		}
	}
	if err := w.InjectHijack(uni, loc, 0.5); err != nil {
		t.Fatalf("valid hijack rejected: %v", err)
	}
	w.ClearHijack(uni)
}

func TestBannerAndTLS(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	cf := w.Registry.MustByName("CLOUDFLARENET,US")
	target, _ := w.Representative(w.DeploymentsByASN(cf.ASN)[0].Prefix)
	// Port 80: open, fingerprintable, not TLS.
	if sw, ok := w.BannerTCP(vp, target, 80, 1); !ok || sw != "cloudflare-nginx" {
		t.Errorf("BannerTCP(80) = %q,%v", sw, ok)
	}
	if w.ProbeTLS(vp, target, 80, 1) {
		t.Error("port 80 should not speak TLS")
	}
	// Port 443: open and TLS.
	if !w.ProbeTLS(vp, target, 443, 1) {
		t.Error("port 443 should speak TLS")
	}
	// A closed port yields neither.
	if _, ok := w.BannerTCP(vp, target, 81, 1); ok {
		t.Error("closed port produced a banner")
	}
	if w.ProbeTLS(vp, target, 81, 1) {
		t.Error("closed port spoke TLS")
	}
}

func TestQueryCHAOSInPackage(t *testing.T) {
	w := testWorld(t)
	vp := pickVP(t)
	od := w.Registry.MustByName("OPENDNS,US")
	target, _ := w.Representative(w.DeploymentsByASN(od.ASN)[0].Prefix)
	id, reply := w.QueryCHAOS(vp, target, 1)
	if !reply.OK() || id == "" {
		t.Fatalf("CHAOS on OpenDNS: %q, %v", id, reply)
	}
	// Identity is stable per (vp, round) and names the serving site.
	id2, _ := w.QueryCHAOS(vp, target, 1)
	if id != id2 {
		t.Error("CHAOS identity flapped within a round")
	}
	// Non-DNS deployments stay silent.
	ms := w.Registry.MustByName("MICROSOFT,US")
	msIP, _ := w.Representative(w.DeploymentsByASN(ms.ASN)[0].Prefix)
	if id, reply := w.QueryCHAOS(vp, msIP, 1); reply.OK() || id != "" {
		t.Error("CHAOS answered on a non-DNS deployment")
	}
}

func TestDeploymentAccessors(t *testing.T) {
	w := testWorld(t)
	d := w.Deployments()[0]
	if d.String() == "" {
		t.Error("empty deployment String")
	}
	cs := d.Cities()
	if len(cs) == 0 || len(cs) > len(d.Replicas) {
		t.Errorf("Cities() = %v for %d replicas", cs, len(d.Replicas))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i] <= cs[i-1] {
			t.Error("Cities() not sorted/unique")
		}
	}
}

func TestAlexaHostedInPackage(t *testing.T) {
	w := testWorld(t)
	cf := w.Registry.MustByName("CLOUDFLARENET,US")
	hosted := 0
	for _, d := range w.DeploymentsByASN(cf.ASN) {
		if w.AlexaHosted(d.Prefix) {
			hosted++
		}
	}
	if hosted != cf.AlexaIP24s {
		t.Errorf("CloudFlare hosts Alexa sites on %d /24s, want %d", hosted, cf.AlexaIP24s)
	}
	if w.AlexaHosted(w.unicastPrefixes()[0]) {
		t.Error("unicast prefix hosts an Alexa site")
	}
}

func TestProbeTCPUnicastServices(t *testing.T) {
	// A minority of responsive unicast hosts run web/SSH services.
	w := testWorld(t)
	vp := pickVP(t)
	open80, tried := 0, 0
	for _, p := range w.unicastPrefixes() {
		if tried >= 600 {
			break
		}
		rep, _ := w.Representative(p)
		if !w.ProbeICMP(vp, rep, 0).OK() {
			continue
		}
		tried++
		if w.ProbeTCP(vp, rep, 80, 0).OK() {
			open80++
		}
	}
	frac := float64(open80) / float64(tried)
	if frac < 0.08 || frac > 0.35 {
		t.Errorf("unicast port-80 fraction = %.2f, want ~0.20", frac)
	}
}
