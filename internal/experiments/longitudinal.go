package experiments

import (
	"fmt"
	"strings"

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
		outcomes, _ := l.drive(l.newCampaign(), world, h, nil, uint64(50+e), sample)

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

// LongitudinalCampaignRound is one round of the longitudinal campaign:
// what the census saw after the round folded.
type LongitudinalCampaignRound struct {
	Round       uint64
	Detected24s int
}

// LongitudinalCampaignResult is the paper's census cadence on one
// campaign (Sec. 3.2: the anycast set is largely stable between censuses,
// with month-to-month changes confined to a small fraction of the /24s):
// an initial full census, then monthly rounds that re-probe only the
// churned slice of the target list, the combination analyzed after every
// round.
type LongitudinalCampaignResult struct {
	Rounds  []LongitudinalCampaignRound
	Targets int
	VPs     int
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
// sample throughout, and analyzes the combined view after every round.
func (l *Lab) LongitudinalCampaign(rounds, vps int) LongitudinalCampaignResult {
	sample := l.PL.Sample(vps, l.Config.Seed+200)
	targets := l.Hitlist.Targets()
	var res LongitudinalCampaignResult
	cp := l.newCampaign()
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
		// One round per drive: each carries its own blacklist, and each
		// analyzes the combination so far.
		outcomes, rep := l.drive(cp, l.World, l.Hitlist, black, uint64(60+r), sample)
		res.Rounds = append(res.Rounds, LongitudinalCampaignRound{Round: rep.Rounds[0].Round, Detected24s: len(outcomes)})
	}
	res.Targets = len(targets)
	res.VPs = len(cp.Combined().VPs)
	return res
}

// Report renders the per-round detections.
func (r LongitudinalCampaignResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension - monthly patch censuses over a %d-round campaign (%d targets, %d VPs)\n",
		len(r.Rounds), r.Targets, r.VPs)
	for _, rd := range r.Rounds {
		fmt.Fprintf(&b, "  round %d: %4d anycast /24s\n", rd.Round, rd.Detected24s)
	}
	b.WriteString("  (successive censuses mostly confirm the previous answer - Sec. 3.2's stability)\n")
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
