package netsim

import (
	"strings"
	"testing"

	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

func TestFaultConfigValidate(t *testing.T) {
	if err := (FaultConfig{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	cases := []FaultConfig{
		{CrashFraction: -0.1},
		{CrashFraction: 1.5},
		{CrashStickiness: 2},
		{FlapFraction: -1},
		{FlapWindow: 1.01},
		{BurstLossFraction: 42},
		{BurstLossProb: -0.5},
		{TargetOutageFraction: 7},
		{RecoveryAttempts: -1},
	}
	for _, c := range cases {
		if _, err := NewFaultPlan(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if _, err := NewFaultPlan(FaultConfig{CrashFraction: 0.3, FlapFraction: 0.1}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNilFaultPlanInjectsNothing(t *testing.T) {
	var p *FaultPlan
	if c, s := p.Crashes(1, 1); c || s {
		t.Error("nil plan crashes")
	}
	if _, ok := p.CrashIndex(1, 1, 0, 100); ok {
		t.Error("nil plan has a crash index")
	}
	if p.ReplyLost(1, 1, 0, 100) {
		t.Error("nil plan loses replies")
	}
	if p.TargetUnreachable(Prefix24(1), 1) {
		t.Error("nil plan takes targets down")
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	cfg := FaultConfig{
		Seed: 42, CrashFraction: 0.3, CrashStickiness: 0.5,
		FlapFraction: 0.2, BurstLossFraction: 0.2, TargetOutageFraction: 0.05,
	}
	p1, err := NewFaultPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewFaultPlan(cfg)
	for vp := 0; vp < 50; vp++ {
		for round := uint64(1); round <= 3; round++ {
			c1, s1 := p1.Crashes(vp, round)
			c2, s2 := p2.Crashes(vp, round)
			if c1 != c2 || s1 != s2 {
				t.Fatal("two plans from the same config disagree")
			}
			a1, ok1 := p1.CrashIndex(vp, round, 0, 1000)
			a2, ok2 := p2.CrashIndex(vp, round, 0, 1000)
			if a1 != a2 || ok1 != ok2 {
				t.Fatal("crash indices disagree")
			}
			for i := uint64(0); i < 1000; i += 37 {
				if p1.ReplyLost(vp, round, i, 1000) != p2.ReplyLost(vp, round, i, 1000) {
					t.Fatal("reply loss disagrees")
				}
			}
		}
	}
}

func TestFaultPlanCrashFractionCalibrated(t *testing.T) {
	p, _ := NewFaultPlan(FaultConfig{Seed: 7, CrashFraction: 0.3, CrashStickiness: 0.5})
	const vps = 2000
	crashed, sticky := 0, 0
	for vp := 0; vp < vps; vp++ {
		c, s := p.Crashes(vp, 1)
		if c {
			crashed++
		}
		if s {
			sticky++
		}
	}
	if frac := float64(crashed) / vps; frac < 0.25 || frac > 0.35 {
		t.Errorf("crash fraction = %.3f, want ~0.30", frac)
	}
	// Stickiness conditions on having crashed.
	if frac := float64(sticky) / float64(crashed); frac < 0.4 || frac > 0.6 {
		t.Errorf("sticky fraction among crashed = %.3f, want ~0.5", frac)
	}
}

func TestCrashIndexRecoveryAndStickiness(t *testing.T) {
	p, _ := NewFaultPlan(FaultConfig{Seed: 3, CrashFraction: 1, CrashStickiness: 0})
	const n = 1000
	at0, ok := p.CrashIndex(5, 1, 0, n)
	if !ok {
		t.Fatal("CrashFraction=1 VP did not crash on attempt 0")
	}
	if at0 == 0 || at0 >= n {
		t.Errorf("crash index %d outside the run", at0)
	}
	// RecoveryAttempts defaults to 1: the first retry succeeds.
	if _, ok := p.CrashIndex(5, 1, 1, n); ok {
		t.Error("non-sticky VP crashed on its recovery attempt")
	}

	sticky, _ := NewFaultPlan(FaultConfig{Seed: 3, CrashFraction: 1, CrashStickiness: 1})
	for attempt := 0; attempt < 5; attempt++ {
		if _, ok := sticky.CrashIndex(5, 1, attempt, n); !ok {
			t.Errorf("sticky VP recovered on attempt %d", attempt)
		}
	}

	slow, _ := NewFaultPlan(FaultConfig{Seed: 3, CrashFraction: 1, RecoveryAttempts: 3})
	for attempt := 0; attempt < 3; attempt++ {
		if _, ok := slow.CrashIndex(5, 1, attempt, n); !ok {
			t.Errorf("RecoveryAttempts=3 VP recovered early on attempt %d", attempt)
		}
	}
	if _, ok := slow.CrashIndex(5, 1, 3, n); ok {
		t.Error("RecoveryAttempts=3 VP still down on attempt 3")
	}
}

func TestReplyLostFlapWindowContiguous(t *testing.T) {
	p, _ := NewFaultPlan(FaultConfig{Seed: 11, FlapFraction: 1, FlapWindow: 0.2})
	const n = 1000
	lost := 0
	first, last := -1, -1
	for i := uint64(0); i < n; i++ {
		if p.ReplyLost(0, 1, i, n) {
			lost++
			if first < 0 {
				first = int(i)
			}
			last = int(i)
		}
	}
	if lost == 0 {
		t.Fatal("FlapFraction=1 lost nothing")
	}
	if lost != last-first+1 {
		t.Errorf("flap window not contiguous: %d lost across [%d,%d]", lost, first, last)
	}
	if frac := float64(lost) / n; frac < 0.15 || frac > 0.25 {
		t.Errorf("flap window covers %.2f of the run, want ~0.20", frac)
	}
	// The window is stable across attempts by construction (no attempt in
	// the key): re-probing into the flap loses the probe again.
}

func TestTargetOutageTransient(t *testing.T) {
	p, _ := NewFaultPlan(FaultConfig{Seed: 5, TargetOutageFraction: 0.1})
	const prefixes = 5000
	down1, down2, both := 0, 0, 0
	for i := 0; i < prefixes; i++ {
		d1 := p.TargetUnreachable(Prefix24(i), 1)
		d2 := p.TargetUnreachable(Prefix24(i), 2)
		if d1 {
			down1++
		}
		if d2 {
			down2++
		}
		if d1 && d2 {
			both++
		}
	}
	if frac := float64(down1) / prefixes; frac < 0.07 || frac > 0.13 {
		t.Errorf("round-1 outage fraction = %.3f, want ~0.10", frac)
	}
	if down2 == 0 {
		t.Fatal("no outages in round 2")
	}
	// Outages are per round: the overlap between rounds must look like the
	// product of two independent 10% draws, not like a persistent set.
	if both >= down1 {
		t.Errorf("every round-1 outage persisted into round 2 (%d of %d)", both, down1)
	}
}

// TestTargetOutageSilencesEveryProbe holds every probe kind to target
// outages: with every /24 down, every deployment representative times
// out on ICMP, TCP/53, DNS over UDP and TCP and CHAOS, from every vantage
// point, while the healthy world answers each of them somewhere - so a
// probe that ignored the outage would show.
func TestTargetOutageSilencesEveryProbe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Unicast24s = 50
	w := New(cfg)
	outage, err := NewFaultPlan(FaultConfig{Seed: 3, TargetOutageFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	down := w.WithFaults(outage)
	probes := []struct {
		name  string
		probe func(w *World, vp platform.VP, target IP) Reply
	}{
		{"ICMP", func(w *World, vp platform.VP, target IP) Reply { return w.ProbeICMP(vp, target, 1) }},
		{"TCP/53", func(w *World, vp platform.VP, target IP) Reply { return w.ProbeTCP(vp, target, 53, 1) }},
		{"DNS/UDP", func(w *World, vp platform.VP, target IP) Reply { return w.ProbeDNSUDP(vp, target, 1) }},
		{"DNS/TCP", func(w *World, vp platform.VP, target IP) Reply { return w.ProbeDNSTCP(vp, target, 1) }},
		{"CHAOS", func(w *World, vp platform.VP, target IP) Reply { _, r := w.QueryCHAOS(vp, target, 1); return r }},
	}
	vps := sessionTestVPs()[:3]
	for _, p := range probes {
		healthy := 0
		for _, d := range w.Deployments() {
			for _, vp := range vps {
				if p.probe(w, vp, d.rep).OK() {
					healthy++
				}
				if r := p.probe(down, vp, d.rep); r.Kind != ReplyTimeout {
					t.Fatalf("%s from %s to %v under a total outage: %+v, want a timeout", p.name, vp.Name, d.Prefix, r)
				}
			}
		}
		if healthy == 0 {
			t.Errorf("%s: no deployment answers even without faults", p.name)
		}
	}
}

func TestWorldWithFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Unicast24s = 50
	w := New(cfg)
	if w.Faults() != nil {
		t.Fatal("fresh world has faults installed")
	}
	p, _ := NewFaultPlan(FaultConfig{Seed: 1, CrashFraction: 0.5})
	w2 := w.WithFaults(p)
	if w2.Faults() != p {
		t.Error("WithFaults did not install the plan")
	}
	if w.Faults() != nil {
		t.Error("WithFaults mutated the original world")
	}
}

// TestHijackVisibleThroughViews holds WithFaults views to one hijack table:
// a hijack injected or cleared on either side, before or after the view was
// taken, is seen on both sides, and both route the hijacked prefix alike.
// (The table used to be allocated by the first InjectHijack, so a view
// taken before it kept a nil map of its own.)
func TestHijackVisibleThroughViews(t *testing.T) {
	vps := sessionTestVPs()
	hijacker := geo.Coord{Lat: -33.9, Lon: 151.2}
	for _, tc := range []struct {
		name        string
		earlier     bool // another hijack is live before the view is taken
		beforeView  bool // the hijack under test is injected before the view
		throughView bool // ...or through the view, not the parent
	}{
		{name: "before the view", beforeView: true},
		{name: "after the view, the world's first"},
		{name: "after the view, the world's second", earlier: true},
		{name: "through the view, the world's first", throughView: true},
		{name: "through the view, the world's second", earlier: true, throughView: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := sessionTestWorlds(t)
			var victims []IP
			w.Prefixes(func(p Prefix24) {
				if ip, alive := w.Representative(p); len(victims) < 2 && alive && !w.IsAnycast(p) && w.ProbeICMP(vps[0], ip, 1).OK() {
					victims = append(victims, ip)
				}
			})
			if len(victims) < 2 {
				t.Fatal("no two responsive unicast /24s found")
			}
			target, prefix := victims[0], victims[0].Prefix()
			inject := func(on *World, p Prefix24) {
				t.Helper()
				if err := on.InjectHijack(p, hijacker, 1.0); err != nil {
					t.Fatal(err)
				}
			}
			// same reports both sides' view of the hijack and holds their
			// replies, ad hoc and through a span, to each other.
			same := func(when string, view *World, want bool) {
				t.Helper()
				if w.isHijacked(prefix) != want || view.isHijacked(prefix) != want {
					t.Fatalf("%s: parent sees hijack=%v, view sees %v, want %v", when, w.isHijacked(prefix), view.isHijacked(prefix), want)
				}
				for _, vp := range vps {
					ws, vs := w.ProbeSpanSession(vp, []IP{target}), view.ProbeSpanSession(vp, []IP{target})
					for round := uint64(1); round <= 3; round++ {
						if a, b := w.ProbeICMP(vp, target, round), view.ProbeICMP(vp, target, round); a != b {
							t.Fatalf("%s: vp=%s round=%d: parent %+v, view %+v", when, vp.Name, round, a, b)
						}
						if a, b := ws.ICMP(0, round), vs.ICMP(0, round); a != b {
							t.Fatalf("%s: span vp=%s round=%d: parent %+v, view %+v", when, vp.Name, round, a, b)
						}
					}
				}
			}

			if tc.earlier {
				inject(w, victims[1].Prefix())
			}
			if tc.beforeView {
				inject(w, prefix)
			}
			view := w.WithFaults(nil)
			switch {
			case tc.throughView:
				inject(view, prefix)
			case !tc.beforeView:
				inject(w, prefix)
			}
			same("injected", view, true)
			before := w.ProbeICMP(vps[0], target, 1)
			view.ClearHijack(prefix)
			same("cleared through the view", view, false)
			if after := w.ProbeICMP(vps[0], target, 1); after == before {
				t.Fatalf("a full-catchment hijack to %v did not move the reply %+v", hijacker, before)
			}
			inject(view, prefix)
			w.ClearHijack(prefix)
			same("cleared on the parent", view, false)
		})
	}
}

func TestVPCrashError(t *testing.T) {
	err := &VPCrashError{VP: "planetlab1.example", Round: 3, Attempt: 1, ProbeIndex: 512}
	msg := err.Error()
	for _, want := range []string{"planetlab1.example", "512", "round 3", "attempt 1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// Every crashing (VP, round, attempt) aborts inside the run, whatever its
// length: a one-probe run (a one-target unit) crashes too, at index 0.
// From 20 probes on the 5% lead-in keeps the crash past the first probe.
func TestCrashIndexWithinRun(t *testing.T) {
	p, _ := NewFaultPlan(FaultConfig{Seed: 8, CrashFraction: 1, CrashStickiness: 1})
	for n := uint64(1); n <= 40; n++ {
		for vp := 0; vp < 50; vp++ {
			for attempt := 0; attempt < 3; attempt++ {
				at, ok := p.CrashIndex(vp, 2, attempt, n)
				if !ok || at >= n {
					t.Fatalf("n=%d VP %d attempt %d: crash at %d, %v", n, vp, attempt, at, ok)
				}
				if n >= 20 && at == 0 {
					t.Fatalf("n=%d VP %d attempt %d: crash before the first probe", n, vp, attempt)
				}
			}
		}
	}
}
