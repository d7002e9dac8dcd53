package netsim

import (
	"fmt"

	"anycastmap/internal/detrand"
)

// This file is the failure model of the measurement substrate. The paper's
// census survived a platform that degraded daily: PlanetLab nodes crashed
// or were rebooted mid-census, overdriven vantage points dropped replies in
// bursts (Sec. 3.5), and targets fell off the routed table for a round.
// FaultPlan reproduces those failure modes deterministically — every
// decision is a pure function of the plan seed and the identifying tuple —
// so a census run against a faulty world is exactly reproducible, and tests
// can predict which vantage points fail, where, and whether retrying helps.

// FaultConfig parametrizes a deterministic fault plan. All fractions are
// probabilities in [0, 1]; the zero value injects nothing.
type FaultConfig struct {
	// Seed drives every fault decision, independently of the world seed,
	// so the same world can be probed under different failure weather.
	Seed uint64

	// CrashFraction is the per-round fraction of vantage points that
	// crash partway through their probing run (the PlanetLab node that
	// reboots mid-census). A crashed VP's run aborts with VPCrashError.
	CrashFraction float64
	// CrashStickiness is the probability that a crashed VP stays down
	// for every retry attempt of the round (hardware failure rather than
	// a reboot): sticky crashes exhaust the retry budget and end in
	// quarantine.
	CrashStickiness float64
	// RecoveryAttempts is the number of failed attempts a non-sticky
	// crashed VP needs before it comes back; zero means 1 (the VP
	// answers its first retry).
	RecoveryAttempts int

	// FlapFraction is the per-round fraction of VPs whose connectivity
	// flaps: a contiguous window of the run in which every probe times
	// out (replies lost, probes unanswered — elevated timeouts, not
	// errors).
	FlapFraction float64
	// FlapWindow is the fraction of the run covered by a flap window;
	// zero means 0.2.
	FlapWindow float64

	// BurstLossFraction is the per-round fraction of VPs that suffer
	// bursty reply loss: within a window of half the run, each probe is
	// lost with BurstLossProb (the heterogeneous reply drops of
	// Sec. 3.5, without the rate coupling).
	BurstLossFraction float64
	// BurstLossProb is the per-probe loss probability inside a burst
	// window; zero means 0.5.
	BurstLossProb float64

	// TargetOutageFraction is the per-round fraction of /24s that are
	// transiently unreachable for the whole round (withdrawn routes,
	// maintenance); the next round reaches them again.
	TargetOutageFraction float64
}

// Validate reports the first problem with the configuration, or nil.
func (c FaultConfig) Validate() error {
	frac := func(name string, v float64) error {
		if !(v >= 0 && v <= 1) { // NaN fails both bounds
			return fmt.Errorf("netsim: fault %s %v outside [0,1]", name, v)
		}
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"CrashFraction", c.CrashFraction},
		{"CrashStickiness", c.CrashStickiness},
		{"FlapFraction", c.FlapFraction},
		{"FlapWindow", c.FlapWindow},
		{"BurstLossFraction", c.BurstLossFraction},
		{"BurstLossProb", c.BurstLossProb},
		{"TargetOutageFraction", c.TargetOutageFraction},
	} {
		if err := frac(p.name, p.v); err != nil {
			return err
		}
	}
	if c.RecoveryAttempts < 0 {
		return fmt.Errorf("netsim: fault RecoveryAttempts %d negative", c.RecoveryAttempts)
	}
	return nil
}

// Hash tags keeping fault draws independent of each other and of every
// other consumer of detrand.
const (
	tagCrash   = 0xFA01
	tagCrashAt = 0xFA02
	tagSticky  = 0xFA03
	tagFlap    = 0xFA04
	tagFlapAt  = 0xFA05
	tagBurst   = 0xFA06
	tagBurstAt = 0xFA07
	tagBurstP  = 0xFA08
	tagOutage  = 0xFA09
)

// FaultPlan is an immutable, deterministic schedule of failures. A nil
// plan injects nothing; every method is safe on a nil receiver, so callers
// need no guards. Plans are stateless and safe for concurrent use.
type FaultPlan struct {
	cfg FaultConfig
}

// NewFaultPlan validates the configuration and builds a plan.
func NewFaultPlan(cfg FaultConfig) (*FaultPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.RecoveryAttempts == 0 {
		cfg.RecoveryAttempts = 1
	}
	return &FaultPlan{cfg: cfg}, nil
}

// Config returns the plan's configuration.
func (p *FaultPlan) Config() FaultConfig { return p.cfg }

func (p *FaultPlan) flapWindow() float64 {
	if p.cfg.FlapWindow > 0 {
		return p.cfg.FlapWindow
	}
	return 0.2
}

func (p *FaultPlan) burstProb() float64 {
	if p.cfg.BurstLossProb > 0 {
		return p.cfg.BurstLossProb
	}
	return 0.5
}

// Crashes reports whether the VP is scheduled to crash during the given
// round at all (on its first attempt). Sticky tells whether retrying can
// ever help within the round.
func (p *FaultPlan) Crashes(vpID int, round uint64) (crashes, sticky bool) {
	if p == nil || p.cfg.CrashFraction <= 0 {
		return false, false
	}
	if detrand.UnitFloat(p.cfg.Seed, uint64(vpID), round, tagCrash) >= p.cfg.CrashFraction {
		return false, false
	}
	return true, detrand.UnitFloat(p.cfg.Seed, uint64(vpID), round, tagSticky) < p.cfg.CrashStickiness
}

// CrashIndex returns the probe index at which the VP's run aborts during
// the given (round, attempt), and whether it aborts at all. Non-sticky
// crashed VPs recover once attempt reaches RecoveryAttempts; sticky ones
// crash on every attempt (at varying points). n is the run length; a run
// that crashes aborts at an index below n, whatever n >= 1.
func (p *FaultPlan) CrashIndex(vpID int, round uint64, attempt int, n uint64) (uint64, bool) {
	if p == nil || n == 0 {
		return 0, false
	}
	crashes, sticky := p.Crashes(vpID, round)
	if !crashes {
		return 0, false
	}
	if !sticky && attempt >= p.cfg.RecoveryAttempts {
		return 0, false
	}
	// The crash lands somewhere in the middle 90% of the run, at a point
	// that differs between attempts: a retried VP gets further (or less
	// far) before dying again. frac < 0.95, so the index is below n: a
	// run of one probe crashes before it, at index 0.
	frac := 0.05 + 0.9*detrand.UnitFloat(p.cfg.Seed, uint64(vpID), round, uint64(attempt), tagCrashAt)
	return uint64(frac * float64(n)), true
}

// ReplyLost reports whether probe i of n from the VP is silently lost to a
// flap window or a loss burst during the round. Lost probes are sent but
// unanswered: the prober sees an elevated timeout rate, not an error.
// Windows are stable across attempts — re-probing into a flap loses the
// probe again.
func (p *FaultPlan) ReplyLost(vpID int, round uint64, i, n uint64) bool {
	if p == nil || n == 0 {
		return false
	}
	if p.cfg.FlapFraction > 0 &&
		detrand.UnitFloat(p.cfg.Seed, uint64(vpID), round, tagFlap) < p.cfg.FlapFraction {
		w := uint64(p.flapWindow() * float64(n))
		start := uint64(detrand.UnitFloat(p.cfg.Seed, uint64(vpID), round, tagFlapAt) * float64(n-w))
		if i >= start && i < start+w {
			return true
		}
	}
	if p.cfg.BurstLossFraction > 0 &&
		detrand.UnitFloat(p.cfg.Seed, uint64(vpID), round, tagBurst) < p.cfg.BurstLossFraction {
		w := n / 2
		start := uint64(detrand.UnitFloat(p.cfg.Seed, uint64(vpID), round, tagBurstAt) * float64(n-w))
		if i >= start && i < start+w &&
			detrand.UnitFloat(p.cfg.Seed, uint64(vpID), round, i, tagBurstP) < p.burstProb() {
			return true
		}
	}
	return false
}

// TargetUnreachable reports whether the /24 is down for the whole round.
func (p *FaultPlan) TargetUnreachable(pfx Prefix24, round uint64) bool {
	if p == nil || p.cfg.TargetOutageFraction <= 0 {
		return false
	}
	return detrand.UnitFloat(p.cfg.Seed, uint64(pfx), round, tagOutage) < p.cfg.TargetOutageFraction
}

// VPCrashError is the mid-run abort of a crashed vantage point: the
// injected equivalent of a PlanetLab node dying under the prober. It is a
// transient infrastructure failure, so census retry logic treats it as
// retryable.
type VPCrashError struct {
	VP         string
	Round      uint64
	Attempt    int
	ProbeIndex uint64
}

// Error implements error.
func (e *VPCrashError) Error() string {
	return fmt.Sprintf("netsim: VP %s crashed at probe %d (round %d, attempt %d)",
		e.VP, e.ProbeIndex, e.Round, e.Attempt)
}
