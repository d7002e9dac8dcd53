package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/core"
	"anycastmap/internal/detrand"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/prober"
)

// LongitudinalResult is the Sec. 5 "longitudinal view" extension: periodic
// censuses against the evolving anycast landscape, tracking how the
// detected footprint changes over time.
type LongitudinalResult struct {
	Epochs []LongitudinalEpoch
}

// LongitudinalEpoch is the census outcome for one period.
type LongitudinalEpoch struct {
	Epoch        uint64
	TrueReplicas int
	Detected24s  int
	Replicas     int
	// NewCities / LostCities count the churn of the measured city set
	// relative to the previous epoch.
	NewCities, LostCities int
}

// Longitudinal runs one census per epoch against the evolving world. It is
// intentionally lighter than the full lab: a single census of vps vantage
// points per epoch.
func (l *Lab) Longitudinal(epochs int, vps int) LongitudinalResult {
	res := LongitudinalResult{}
	prevCities := map[string]bool{}
	for e := 0; e < epochs; e++ {
		world := l.World
		if e > 0 {
			world = l.World.Evolve(uint64(e))
		}
		h := hitlist.FromWorld(world).PruneNeverAlive()
		sample := l.PL.Sample(vps, l.Config.Seed+100+uint64(e))
		// Worlds differ between epochs, so each is a campaign of its own.
		cp := l.newCampaign()
		probeRound(cp, world, sample, h, nil, uint64(50+e))
		outcomes := census.AnalyzeAll(l.Cities, cp.Combined(), core.Options{}, 2, 0)

		ep := LongitudinalEpoch{Epoch: uint64(e)}
		for _, d := range world.Deployments() {
			ep.TrueReplicas += len(d.Replicas)
		}
		cities := map[string]bool{}
		for _, o := range outcomes {
			ep.Detected24s++
			ep.Replicas += o.Result.Count()
			for _, c := range o.Result.Cities() {
				cities[c] = true
			}
		}
		for c := range cities {
			if !prevCities[c] {
				ep.NewCities++
			}
		}
		for c := range prevCities {
			if !cities[c] {
				ep.LostCities++
			}
		}
		if e == 0 {
			ep.NewCities, ep.LostCities = 0, 0
		}
		prevCities = cities
		res.Epochs = append(res.Epochs, ep)
	}
	return res
}

// LongitudinalCampaignRound is one round of the multi-round re-analysis
// workload: how much of the target set actually changed and what the
// census saw after the round folded.
type LongitudinalCampaignRound struct {
	Round uint64
	// Dirty is how many targets the fold marked dirty (a combined
	// min-RTT cell improved or a VP newly answered); DirtyFraction is
	// Dirty over the full target count — the measured analogue of the
	// paper's Sec. 3.2 month-to-month churn.
	Dirty         int
	DirtyFraction float64
	Detected24s   int
}

// LongitudinalCampaignResult quantifies the incremental analysis engine
// on the paper's longitudinal re-analysis workload (Sec. 3.2: the anycast
// set is largely stable between censuses, with month-to-month changes
// confined to a small fraction of the /24s): after an initial full
// census, each monthly round re-probes only the churned slice of the
// target list and the combination is re-analyzed after every round both
// ways — batch (AnalyzeAll from scratch, what longitudinal re-analysis
// cost before the incremental engine) and incremental (the dirty-set
// analysis) — and the per-round outcomes are verified equal.
type LongitudinalCampaignResult struct {
	Rounds  []LongitudinalCampaignRound
	Targets int
	VPs     int
	// BatchWall and IncrementalWall cover the per-round analysis only;
	// probing and folding are shared by both and excluded.
	BatchWall, IncrementalWall time.Duration
	Speedup                    float64
	// Agree is true when every round's incremental outcomes deep-equal
	// the batch outcomes — the bit-identity contract.
	Agree bool
}

// LongitudinalChurnPerMil is the per-round target churn of the
// longitudinal campaign workload, in 1/1000ths: each patch round
// re-probes this deterministic slice of the target list, standing in for
// the small month-to-month fraction of /24s whose routing actually
// changed (Sec. 3.2).
const LongitudinalChurnPerMil = 50

// LongitudinalCampaign runs the paper's census cadence against the lab's
// world — one full census, then rounds-1 monthly patch rounds that
// re-probe only the ~5% churned slice of the target list (everything
// else is greylisted and keeps its folded samples) — using one fixed VP
// sample throughout, and re-analyzes the combined view after every round
// through both analysis paths.
func (l *Lab) LongitudinalCampaign(rounds, vps int) LongitudinalCampaignResult {
	sample := l.PL.Sample(vps, l.Config.Seed+200)
	targets := l.Hitlist.Targets()
	res := LongitudinalCampaignResult{Agree: true}
	cp := l.newCampaign()
	cp.AttachAnalyzer(census.NewAnalyzer(l.Cities, census.AnalyzerConfig{}))
	for r := 0; r < rounds; r++ {
		black := l.Black
		if r > 0 {
			// Patch round: greylist every target outside this month's
			// churn slice, so the census re-probes only the /24s that
			// plausibly changed since the last round.
			black = prober.NewGreylist()
			if l.Black != nil {
				black.Merge(l.Black)
			}
			for _, t := range targets {
				if detrand.Hash64(l.Config.Seed, uint64(60+r), uint64(t), 0xC4)%1000 >= LongitudinalChurnPerMil {
					black.Add(t, netsim.ReplyTimeout)
				}
			}
		}
		sum := probeRound(cp, l.World, sample, l.Hitlist, black, uint64(60+r))

		dirty := cp.AnalyzeDirty()
		incremental := cp.Outcomes()
		t0 := time.Now()
		batch := census.AnalyzeAll(l.Cities, cp.Combined(), core.Options{}, 2, 0)
		res.BatchWall += time.Since(t0)
		if !reflect.DeepEqual(batch, incremental) {
			res.Agree = false
		}
		res.Rounds = append(res.Rounds, LongitudinalCampaignRound{
			Round:         sum.Round,
			Dirty:         dirty,
			DirtyFraction: float64(dirty) / float64(len(targets)),
			Detected24s:   len(incremental),
		})
	}
	res.IncrementalWall = cp.AnalysisWall()
	res.Targets = len(targets)
	res.VPs = len(cp.Combined().VPs)
	if res.IncrementalWall > 0 {
		res.Speedup = float64(res.BatchWall) / float64(res.IncrementalWall)
	}
	return res
}

// Report renders the incremental-vs-batch comparison.
func (r LongitudinalCampaignResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension - incremental re-analysis over a %d-round campaign (%d targets, %d VPs)\n",
		len(r.Rounds), r.Targets, r.VPs)
	for _, rd := range r.Rounds {
		fmt.Fprintf(&b, "  round %d: %6d dirty targets (%.1f%%), %4d anycast /24s\n",
			rd.Round, rd.Dirty, 100*rd.DirtyFraction, rd.Detected24s)
	}
	fmt.Fprintf(&b, "  batch %.2fs vs incremental %.2fs: %.1fx; outcomes agree: %v\n",
		r.BatchWall.Seconds(), r.IncrementalWall.Seconds(), r.Speedup, r.Agree)
	b.WriteString("  (successive censuses mostly confirm the previous answer - Sec. 3.2's stability,\n   turned into wall-clock savings by re-analyzing only the dirty targets)\n")
	return b.String()
}

// Report renders the time series.
func (r LongitudinalResult) Report() string {
	var b strings.Builder
	b.WriteString("Extension - longitudinal view (Sec. 5): periodic censuses over the evolving landscape\n")
	for _, e := range r.Epochs {
		fmt.Fprintf(&b, "  epoch %d: truth %6d replicas; detected %4d /24s, %6d replicas; city churn +%d/-%d\n",
			e.Epoch, e.TrueReplicas, e.Detected24s, e.Replicas, e.NewCities, e.LostCities)
	}
	b.WriteString("  (the landscape mostly grows; a running census tracks the drift census over census)\n")
	return b.String()
}
