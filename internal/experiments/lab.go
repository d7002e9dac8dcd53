// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic Internet: it wires the full workflow of
// Fig. 1 (hitlist -> blacklist census -> four censuses from PlanetLab ->
// minimum-RTT combination -> detection/enumeration/geolocation ->
// characterization and portscan) and exposes one function per experiment,
// each returning the measured values next to the numbers the paper
// reports.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"anycastmap/internal/analysis"
	"anycastmap/internal/bgp"
	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// LabConfig sizes the laboratory.
type LabConfig struct {
	// Unicast24s scales the unicast background. The default 20,000 is a
	// 1:530 scale of the paper's 10.6M routed /24s; cmd/experiments can
	// raise it. The anycast inventory is always at paper cardinality.
	Unicast24s int
	// Censuses is the number of census rounds (the paper ran 4).
	Censuses int
	// VPsPerCensus is the PlanetLab availability per round (the paper
	// saw 261, 255, 269 and 240 live nodes).
	VPsPerCensus []int
	// Seed drives the whole lab.
	Seed uint64
}

// DefaultLabConfig mirrors the paper's campaign at reduced unicast scale.
func DefaultLabConfig() LabConfig {
	return LabConfig{
		Unicast24s:   20000,
		Censuses:     4,
		VPsPerCensus: []int{261, 255, 269, 240},
		Seed:         2015,
	}
}

// Lab is a fully-executed census campaign ready for analysis.
type Lab struct {
	Config LabConfig

	World   *netsim.World
	Cities  *cities.DB
	PL      *platform.Platform
	RIPE    *platform.Platform
	Table   *bgp.Table
	Full    *hitlist.Hitlist // before pruning
	Hitlist *hitlist.Hitlist // pruned per-VP target list
	Black   *prober.Greylist

	// Rounds summarizes each census round in order: VP count, probes,
	// echo targets, per-VP completion times. Greylist is the union of
	// the rounds' greylists, the blacklist not included.
	Rounds   []census.RoundSummary
	Greylist *prober.Greylist
	Combined *census.Combined
	Outcomes []census.Outcome
	Findings []analysis.Finding
}

// ScaleFactor returns the downscale of the allocated /24 space relative to
// the paper's 10.6M routed /24s; multiply scaled magnitudes by it to
// extrapolate.
func (l *Lab) ScaleFactor() float64 {
	return 10_616_435.0 / float64(l.World.NumPrefixes())
}

// NewLab builds the world and executes the full campaign. It is expensive
// (tens of seconds at default scale); share one Lab across experiments.
func NewLab(cfg LabConfig) *Lab {
	if cfg.Unicast24s <= 0 {
		cfg.Unicast24s = 20000
	}
	if cfg.Censuses <= 0 {
		cfg.Censuses = 4
	}
	for len(cfg.VPsPerCensus) < cfg.Censuses {
		cfg.VPsPerCensus = append(cfg.VPsPerCensus, 255)
	}

	wcfg := netsim.DefaultConfig()
	wcfg.Seed = cfg.Seed
	wcfg.Unicast24s = cfg.Unicast24s

	l := &Lab{Config: cfg, Cities: cities.Default()}
	l.World = netsim.New(wcfg)
	l.PL = platform.PlanetLab(l.Cities)
	l.RIPE = platform.RIPEAtlas(l.Cities)
	l.Table = bgp.FromWorld(l.World)
	l.Full = hitlist.FromWorld(l.World)

	// Workflow of Fig. 1: a preliminary single-VP census seeds the
	// blacklist, then the pruned hitlist is probed from every live VP in
	// each census round.
	black, err := prober.BuildBlacklist(l.World, l.PL.VPs()[0], l.Full.Targets(), prober.Config{Seed: cfg.Seed})
	if err != nil {
		panic(fmt.Sprintf("experiments: blacklist census: %v", err))
	}
	l.Black = black
	l.Hitlist = l.Full.PruneNeverAlive().Without(l.Black.Targets())

	// The rounds run through one Campaign, as the serving refresher's do:
	// each census is probed in (VP, target span) units that fold into the
	// combined minimum-RTT matrix as they land.
	cp := l.newCampaign()
	for round := 0; round < cfg.Censuses; round++ {
		l.Rounds = append(l.Rounds, probeRound(cp, l.World, l.roundVPs(round), l.Hitlist, l.Black, uint64(round+1)))
	}
	l.Greylist = cp.Greylist()
	l.Combined = cp.Combined()
	l.Outcomes = census.AnalyzeAll(l.Cities, l.Combined, core.Options{}, 2, 0)
	l.Findings = analysis.Attribute(l.Outcomes, l.Table)
	return l
}

// newCampaign returns an empty campaign probing at the lab's seed.
func (l *Lab) newCampaign() *census.Campaign {
	return census.NewCampaign(census.CampaignConfig{Census: census.Config{Seed: l.Config.Seed}})
}

// roundVPs is census round i's (0-based) PlanetLab sample: the paper saw
// a different set of live nodes each month.
func (l *Lab) roundVPs(i int) []platform.VP {
	return l.PL.Sample(l.Config.VPsPerCensus[i], l.Config.Seed+uint64(i))
}

// probeRound probes one census round into cp on the span-pipelined
// executor, the one store.Refresher and cmd/census run.
func probeRound(cp *census.Campaign, w *netsim.World, vps []platform.VP, h *hitlist.Hitlist, black *prober.Greylist, round uint64) census.RoundSummary {
	sum, err := cp.ExecuteRoundPipelined(context.Background(), w, vps, h, black, round, census.PipelineConfig{})
	if err != nil {
		panic(fmt.Sprintf("experiments: census round %d: %v", round, err))
	}
	return sum
}

// singleCensus probes one census of vps over the pruned hitlist into a
// campaign of its own and analyzes it alone. Probing is a pure function of
// (VP, target, round, seed), so re-probing one of the lab's rounds yields
// exactly that round's matrix.
func (l *Lab) singleCensus(vps []platform.VP, round uint64) []census.Outcome {
	cp := l.newCampaign()
	probeRound(cp, l.World, vps, l.Hitlist, l.Black, round)
	return census.AnalyzeAll(l.Cities, cp.Combined(), core.Options{}, 2, 0)
}

var (
	defaultLabOnce sync.Once
	defaultLab     *Lab
)

// DefaultLab returns the shared lab at default scale, building it on first
// use.
func DefaultLab() *Lab {
	defaultLabOnce.Do(func() {
		defaultLab = NewLab(DefaultLabConfig())
	})
	return defaultLab
}
