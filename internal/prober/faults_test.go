package prober

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/record"
)

// crashingVP finds a vantage point the plan schedules to crash in round.
func crashingVP(t *testing.T, pl *platform.Platform, plan *netsim.FaultPlan, round uint64) platform.VP {
	t.Helper()
	for _, vp := range pl.VPs() {
		if c, _ := plan.Crashes(vp.ID, round); c {
			return vp
		}
	}
	t.Fatal("fault plan crashes no vantage point of the platform")
	return platform.VP{}
}

func TestRunCrashAbortsMidRun(t *testing.T) {
	w, h, pl := testbed(t)
	plan, err := netsim.NewFaultPlan(netsim.FaultConfig{Seed: 21, CrashFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	fw := w.WithFaults(plan)
	vp := crashingVP(t, pl, plan, 1)
	targets := h.PruneNeverAlive().Targets()

	stats, _, err := Run(fw, vp, targets, nil, Config{Seed: 1, Round: 1}, nil)
	var crash *netsim.VPCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("crashed VP returned %v, want VPCrashError", err)
	}
	if crash.VP != vp.Name || crash.Round != 1 || crash.Attempt != 0 {
		t.Errorf("crash identity wrong: %+v", crash)
	}
	if stats.Sent == 0 || stats.Sent >= len(targets) {
		t.Errorf("crashed run sent %d of %d probes, want a strict partial", stats.Sent, len(targets))
	}
	// The partial run still accounts for its wall-clock time.
	want := time.Duration(float64(stats.Sent) / 1000 * vp.LoadFactor * float64(time.Second))
	if stats.Completion != want {
		t.Errorf("partial completion = %v, want %v", stats.Completion, want)
	}
}

func TestRunCrashRecoveryOnRetry(t *testing.T) {
	w, h, pl := testbed(t)
	plan, err := netsim.NewFaultPlan(netsim.FaultConfig{Seed: 21, CrashFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	fw := w.WithFaults(plan)
	vp := crashingVP(t, pl, plan, 1)
	targets := h.PruneNeverAlive().Targets()[:1000]

	if _, _, err := Run(fw, vp, targets, nil, Config{Seed: 1, Round: 1, Attempt: 0}, nil); err == nil {
		t.Fatal("attempt 0 did not crash")
	}
	// Non-sticky crash, default RecoveryAttempts=1: the retry completes and
	// matches a run against the faultless world sample for sample.
	var mu sync.Mutex
	retried := map[netsim.IP]time.Duration{}
	rStats, _, err := Run(fw, vp, targets, nil, Config{Seed: 1, Round: 1, Attempt: 1}, func(s record.Sample) {
		mu.Lock()
		retried[s.Target] = s.RTT
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("retry attempt crashed: %v", err)
	}
	if rStats.Sent != len(targets) {
		t.Errorf("retry sent %d, want %d", rStats.Sent, len(targets))
	}
	clean := map[netsim.IP]time.Duration{}
	cStats, _, err := Run(w, vp, targets, nil, Config{Seed: 1, Round: 1}, func(s record.Sample) {
		mu.Lock()
		clean[s.Target] = s.RTT
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(retried) != len(clean) || rStats.Echo != cStats.Echo {
		t.Fatalf("recovered run diverged from faultless run: %d vs %d samples", len(retried), len(clean))
	}
	for ip, rtt := range clean {
		if retried[ip] != rtt {
			t.Fatalf("RTT toward %v changed across recovery: %v vs %v", ip, retried[ip], rtt)
		}
	}
}

func TestRunFlapElevatesTimeouts(t *testing.T) {
	w, h, pl := testbed(t)
	plan, err := netsim.NewFaultPlan(netsim.FaultConfig{Seed: 9, FlapFraction: 1, FlapWindow: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	fw := w.WithFaults(plan)
	vp := pl.VPs()[4]
	targets := h.PruneNeverAlive().Targets()[:2000]

	clean, _, err := Run(w, vp, targets, nil, Config{Seed: 1, Round: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	flapped, _, err := Run(fw, vp, targets, nil, Config{Seed: 1, Round: 1}, nil)
	if err != nil {
		t.Fatalf("flap must degrade, not abort: %v", err)
	}
	if flapped.FaultLost == 0 {
		t.Fatal("flap lost no probes")
	}
	if frac := float64(flapped.FaultLost) / float64(flapped.Sent); frac < 0.25 || frac > 0.35 {
		t.Errorf("flap lost %.2f of probes, want ~0.30", frac)
	}
	if flapped.Timeouts <= clean.Timeouts {
		t.Errorf("timeouts not elevated: %d vs %d clean", flapped.Timeouts, clean.Timeouts)
	}
	if flapped.Echo+flapped.Errors+flapped.Timeouts != flapped.Sent {
		t.Error("faulty stats do not add up")
	}
	if flapped.Sent != clean.Sent {
		t.Errorf("flap changed the probe count: %d vs %d", flapped.Sent, clean.Sent)
	}
}

func TestRunFaultsDeterministic(t *testing.T) {
	w, h, pl := testbed(t)
	plan, _ := netsim.NewFaultPlan(netsim.FaultConfig{
		Seed: 33, CrashFraction: 0.2, FlapFraction: 0.3, BurstLossFraction: 0.3,
	})
	fw := w.WithFaults(plan)
	targets := h.PruneNeverAlive().Targets()[:1500]
	for _, vp := range pl.VPs()[:8] {
		s1, _, e1 := Run(fw, vp, targets, nil, Config{Seed: 7, Round: 2}, nil)
		s2, _, e2 := Run(fw, vp, targets, nil, Config{Seed: 7, Round: 2}, nil)
		if s1 != s2 {
			t.Fatalf("%s: identical faulty runs diverged: %v vs %v", vp.Name, s1, s2)
		}
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("%s: crash outcome diverged", vp.Name)
		}
	}
}

func TestCompletionCountsOnlySentProbes(t *testing.T) {
	// Regression: Completion used to be computed from len(targets) and the
	// sample clock from the raw permutation index, so greylist-skipped
	// targets inflated both. Only probes actually sent take wall-clock time.
	w, h, pl := testbed(t)
	vp := pl.VPs()[5]
	targets := h.PruneNeverAlive().Targets()[:800]
	skip := NewGreylist()
	for _, ip := range targets[:400] {
		skip.Add(ip, netsim.ReplyAdminFiltered)
	}

	var mu sync.Mutex
	var maxTs uint32
	stats, _, err := Run(w, vp, targets, skip, Config{Seed: 3, Round: 1}, func(s record.Sample) {
		mu.Lock()
		if s.TimestampMs > maxTs {
			maxTs = s.TimestampMs
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 400 {
		t.Fatalf("sent %d, want 400", stats.Sent)
	}
	want := time.Duration(float64(stats.Sent) / 1000 * vp.LoadFactor * float64(time.Second))
	if stats.Completion != want {
		t.Errorf("completion = %v, want %v (Sent-based)", stats.Completion, want)
	}
	// At 1k pps the i-th sent probe is stamped (i-1)·1ms·load: the last
	// possible stamp comes from probe 400. The old index-based clock could
	// stamp up to probe 800.
	bound := uint32(float64(stats.Sent-1) * 1.0 * vp.LoadFactor)
	if maxTs > bound {
		t.Errorf("sample timestamp %dms exceeds the sent-probe clock bound %dms", maxTs, bound)
	}
}

// TestKindOnlyRunMatches holds a run without a sink, which asks each
// probe for its kind alone (SpanSession.Kind) and binds no RTT base, to a
// run whose sink discards every sample: the same statistics, greylist and
// crash, over a world with every unicast class, a live hijack and a fault
// plan with target outages, flaps, loss bursts and crashes, at a rate that
// drops replies at the source. It then holds Kind to ICMP's kind on every
// target of a span, from a KindSession over the classes alone (PlanKinds)
// and from a bound session.
func TestKindOnlyRunMatches(t *testing.T) {
	cfg := netsim.DefaultConfig()
	cfg.Seed, cfg.Unicast24s = 53, 3000
	cfg.AdminFilteredFraction, cfg.HostProhibitedFraction, cfg.NetProhibitedFraction = 0.05, 0.05, 0.05
	w := netsim.New(cfg)
	var targets []netsim.IP
	var hijacked netsim.Prefix24
	w.Prefixes(func(p netsim.Prefix24) {
		ip, _ := w.Representative(p)
		// Every representative, silent ones too, and a neighbour that no
		// unicast /24 models and that an anycast /24 answers by density.
		targets = append(targets, ip, ip^1)
		if hijacked == 0 && !w.IsAnycast(p) && w.ProbeICMP(platform.VP{}, ip, 1).Kind == netsim.ReplyEcho {
			hijacked = p
		}
	})
	if err := w.InjectHijack(hijacked, geo.Coord{Lat: -33.9, Lon: 18.4}, 0.5); err != nil {
		t.Fatal(err)
	}
	plan, err := netsim.NewFaultPlan(netsim.FaultConfig{
		Seed: 53, CrashFraction: 0.3, FlapFraction: 0.3, BurstLossFraction: 0.3, TargetOutageFraction: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fw := w.WithFaults(plan)
	skip := NewGreylist()
	for _, ip := range targets[:200] {
		skip.Add(ip, netsim.ReplyAdminFiltered)
	}
	vps := platform.PlanetLab(cities.Default()).VPs()[:12]

	kinds := map[netsim.ReplyKind]int{}
	crashed, outages := 0, 0
	for _, vp := range vps {
		for round := uint64(1); round <= 2; round++ {
			for _, rate := range []float64{0, 20000} {
				pcfg := Config{Seed: 5, Round: round, Rate: rate}
				kst, kgrey, kerr := Run(fw, vp, targets, skip, pcfg, nil)
				fst, fgrey, ferr := Run(fw, vp, targets, skip, pcfg, func(smp record.Sample) { kinds[smp.Kind]++ })
				if kst != fst {
					t.Fatalf("%s round %d rate %v: kind-only stats %v, full %v", vp.Name, round, rate, kst, fst)
				}
				if !reflect.DeepEqual(kgrey.Snapshot(), fgrey.Snapshot()) {
					t.Fatalf("%s round %d rate %v: kind-only greylist %d hosts, full %d", vp.Name, round, rate, kgrey.Len(), fgrey.Len())
				}
				if !reflect.DeepEqual(kerr, ferr) {
					t.Fatalf("%s round %d rate %v: kind-only error %v, full %v", vp.Name, round, rate, kerr, ferr)
				}
				if kerr != nil {
					crashed++
				}
			}
		}
	}
	for _, k := range []netsim.ReplyKind{netsim.ReplyEcho, netsim.ReplyAdminFiltered, netsim.ReplyHostProhibited, netsim.ReplyNetProhibited} {
		if kinds[k] == 0 {
			t.Errorf("no %v reply in any run", k)
		}
	}
	if crashed == 0 {
		t.Error("no run crashed")
	}

	span, classes := fw.PlanSpan(targets), fw.PlanKinds(targets)
	for _, vp := range vps[:4] {
		bound, kindOnly := fw.PlannedSession(vp, span), fw.KindSession(vp, classes)
		for round := uint64(1); round <= 3; round++ {
			for i, target := range targets {
				want := bound.ICMP(i, round).Kind
				if got := kindOnly.Kind(i, round); got != want {
					t.Fatalf("%s round %d %v: Kind %v, ICMP's kind %v", vp.Name, round, target, got, want)
				}
				if got := bound.Kind(i, round); got != want {
					t.Fatalf("%s round %d %v: bound session's Kind %v, ICMP's kind %v", vp.Name, round, target, got, want)
				}
				if want == netsim.ReplyTimeout && plan.TargetUnreachable(target.Prefix(), round) {
					outages++
				}
			}
		}
		bound.Release()
	}
	if outages == 0 {
		t.Error("no target outage in the span")
	}
}
