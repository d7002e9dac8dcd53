package experiments

import (
	"fmt"

	"anycastmap/internal/analysis"
)

// RIPECensusResult is the Sec. 3.2 what-if: the same census campaign run
// from the RIPE-like platform instead of PlanetLab. The paper could not do
// this (RIPE Atlas caps probing rates and budgets and cannot run custom
// software); the simulator can, quantifying what the platform choice costs.
type RIPECensusResult struct {
	PLVPs, RIPEVPs int
	// PLDetected is the four-census PlanetLab combination;
	// PLSingleDetected one PlanetLab census - the apples-to-apples
	// comparison for RIPE's single census.
	PLDetected, PLSingleDetected, RIPEDetected int
	PLReplicas, RIPEReplicas                   int
	Truth24s                                   int
	TruthReplicas                              int
}

// RIPECensus runs one RIPE census over the lab's world and compares it with
// the PlanetLab campaign.
func (l *Lab) RIPECensus() RIPECensusResult {
	res := RIPECensusResult{
		PLVPs:    len(l.Combined.VPs),
		RIPEVPs:  l.RIPE.Len(),
		Truth24s: len(l.World.Deployments()),
	}
	for _, d := range l.World.Deployments() {
		res.TruthReplicas += len(d.Replicas)
	}
	for _, f := range l.Findings {
		res.PLDetected++
		res.PLReplicas += f.Result.Count()
	}
	// Both single-census views are one-round campaigns: the lab's first
	// PlanetLab census re-probed, and one census from every RIPE VP.
	res.PLSingleDetected = len(l.singleCensus(l.roundVPs(0), 1))
	findings := analysis.Attribute(l.singleCensus(l.RIPE.VPs(), 21), l.Table)
	for _, f := range findings {
		res.RIPEDetected++
		res.RIPEReplicas += f.Result.Count()
	}
	return res
}

// Report renders the platform what-if.
func (r RIPECensusResult) Report() string {
	return fmt.Sprintf("What-if - a census from the RIPE-like platform (Sec. 3.2's intriguing direction)\n"+
		"  PlanetLab, 1 census (~261 VPs): %4d/%d anycast /24s\n"+
		"  RIPE,      1 census (%4d VPs): %4d/%d anycast /24s, %d replicas (truth %d)\n"+
		"  PlanetLab, 4 censuses combined: %4d/%d anycast /24s, %d replicas\n"+
		"  (the denser platform buys recall per census; the paper's PL choice traded that\n"+
		"   for full control of probing software and rate, then clawed recall back by combining)\n",
		r.PLSingleDetected, r.Truth24s,
		r.RIPEVPs, r.RIPEDetected, r.Truth24s, r.RIPEReplicas, r.TruthReplicas,
		r.PLDetected, r.Truth24s, r.PLReplicas)
}
