// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic Internet: it wires the full workflow of
// Fig. 1 (hitlist -> blacklist census -> four censuses from PlanetLab ->
// minimum-RTT combination -> detection/enumeration/geolocation ->
// characterization and portscan) and exposes one function per experiment,
// each returning the measured values next to the numbers the paper
// reports.
package experiments

import (
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
	// 1:530 scale of the paper's 10.6M routed /24s; cmd/benchreport can
	// raise it. The anycast inventory is always at paper cardinality.
	Unicast24s int
	// Censuses is the number of census rounds (the paper ran 4).
	Censuses int
	// VPsPerCensus is the PlanetLab availability per round (the paper
	// saw 261, 255, 269 and 240 live nodes).
	VPsPerCensus []int
	// Seed drives the whole lab.
	Seed uint64
	// DiscardRuns releases each round's matrix after it folds into the
	// combination, bounding peak memory to O(one run + combined). The
	// default (false) retains Runs, which the Fig. 4 funnel and the
	// per-census ablations need; discard only for scale/memory studies
	// that read nothing but Combined.
	DiscardRuns bool
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
	Runs    []*census.Run // individual rounds; nil when Config.DiscardRuns

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

	// Rounds stream through a Campaign: each census folds into the
	// combined minimum-RTT matrix as it finishes, and (with DiscardRuns)
	// its rows are released right away. The fold is byte-identical to the
	// batch Combine of the same rounds.
	cp := census.NewCampaign(census.CampaignConfig{
		Census:     census.Config{Seed: cfg.Seed},
		RetainRuns: !cfg.DiscardRuns,
	})
	for round := 0; round < cfg.Censuses; round++ {
		vps := l.PL.Sample(cfg.VPsPerCensus[round], cfg.Seed+uint64(round))
		run := census.Execute(l.World, vps, l.Hitlist, l.Black, uint64(round+1), census.Config{Seed: cfg.Seed})
		if err := cp.FoldRun(run); err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
	}
	l.Runs = cp.Runs()
	l.Combined = cp.Combined()
	l.Outcomes = census.AnalyzeAll(l.Cities, l.Combined, core.Options{}, 2, 0)
	l.Findings = analysis.Attribute(l.Outcomes, l.Table)
	return l
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
