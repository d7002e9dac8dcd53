package experiments

import (
	"fmt"
	"strings"

	"anycastmap/internal/analysis"
	"anycastmap/internal/stats"
)

// Fig10Result is the census-at-a-glance table.
type Fig10Result struct {
	All       analysis.Glance
	Min5      analysis.Glance
	CAIDA100  analysis.Glance
	Alexa100k analysis.Glance
	// Map is the ASCII rendering of the Fig. 10 replica-density map and
	// TopCountries its per-country backing data.
	Map          string
	TopCountries []analysis.CountryCount
}

// PaperFig10 transcribes the Fig. 10 table.
var PaperFig10 = map[string]analysis.Glance{
	"All":        {IP24s: 1696, ASes: 346, Cities: 77, CC: 38, Replicas: 13802},
	"Min5":       {IP24s: 897, ASes: 100, Cities: 71, CC: 36, Replicas: 11598},
	"CAIDA-100":  {IP24s: 19, ASes: 8, Cities: 30, CC: 18, Replicas: 138},
	"Alexa-100k": {IP24s: 242, ASes: 15, Cities: 45, CC: 29, Replicas: 4038},
}

// Fig10 aggregates the combined census.
func (l *Lab) Fig10() Fig10Result {
	reg := l.World.Registry
	dens := analysis.CountryDensity(l.Findings)
	if len(dens) > 10 {
		dens = dens[:10]
	}
	return Fig10Result{
		All:          analysis.GlanceOf(l.Findings),
		Min5:         analysis.GlanceOf(analysis.FilterMinReplicas(l.Findings, 5)),
		CAIDA100:     analysis.GlanceOf(analysis.FilterCAIDATop100(l.Findings, reg)),
		Alexa100k:    analysis.GlanceOf(analysis.FilterAlexaHosts(l.Findings, l.World.AlexaHosted)),
		Map:          analysis.DensityMap(l.Findings, 72, 20),
		TopCountries: dens,
	}
}

// Report renders the glance table.
func (r Fig10Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 - anycast censuses at a glance (measured | paper)\n")
	fmt.Fprintf(&b, "  %-12s %15s %13s %13s %9s %15s\n", "", "IP/24", "ASes", "Cities", "CC", "Replicas")
	row := func(name string, g, p analysis.Glance) {
		fmt.Fprintf(&b, "  %-12s %6d | %6d %5d | %5d %5d | %5d %3d | %3d %6d | %6d\n",
			name, g.IP24s, p.IP24s, g.ASes, p.ASes, g.Cities, p.Cities, g.CC, p.CC, g.Replicas, p.Replicas)
	}
	row("All", r.All, PaperFig10["All"])
	row(">=5 replicas", r.Min5, PaperFig10["Min5"])
	row("^ CAIDA-100", r.CAIDA100, PaperFig10["CAIDA-100"])
	row("^ Alexa-100k", r.Alexa100k, PaperFig10["Alexa-100k"])
	if r.Map != "" {
		b.WriteString("  geographical density of detected replicas (Fig. 10 map):\n")
		b.WriteString(r.Map)
	}
	if len(r.TopCountries) > 0 {
		b.WriteString("  densest countries:")
		for _, cc := range r.TopCountries {
			fmt.Fprintf(&b, " %s(%d)", cc.CC, cc.Replicas)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig9Row is one AS of the bird's-eye view.
type Fig9Row struct {
	Stat      analysis.ASStat
	OpenPorts int
	CAIDARank int
	Alexa     int
}

// Fig9Result is the bird's-eye view of the top anycast ASes.
type Fig9Result struct {
	Rows []Fig9Row
	// FootprintCorrelation is the Pearson correlation between
	// geographical and /24 footprints (paper: 0.35).
	FootprintCorrelation float64
}

// Fig9 builds the bird's-eye view over the >=5-replica ASes, joining the
// census footprints with the portscan and rank metadata.
func (l *Lab) Fig9() Fig9Result {
	reg := l.World.Registry
	top := analysis.FilterMinReplicas(l.Findings, 5)
	sts := analysis.PerAS(top, reg)
	scan := l.Portscan()
	sum := analysis.SummarizeScan(scan, l.Table)
	var rows []Fig9Row
	for _, st := range sts {
		rows = append(rows, Fig9Row{
			Stat:      st,
			OpenPorts: sum.PortsPerAS[st.AS.ASN],
			CAIDARank: st.AS.CAIDARank,
			Alexa:     st.AS.AlexaSites,
		})
	}
	return Fig9Result{Rows: rows, FootprintCorrelation: analysis.FootprintCorrelation(sts)}
}

// Report renders the head of the bird's-eye view.
func (r Fig9Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 - bird's-eye view of top anycast ASes (%d ASes with >=5 replicas; first 15 shown)\n", len(r.Rows))
	fmt.Fprintf(&b, "  %-22s %9s %6s %6s %7s %7s %9s\n", "AS", "replicas", "±", "IP/24", "ports", "CAIDA", "Alexa")
	for i, row := range r.Rows {
		if i >= 15 {
			break
		}
		caida, alexa := "-", "-"
		if row.CAIDARank > 0 {
			caida = fmt.Sprint(row.CAIDARank)
		}
		if row.Alexa > 0 {
			alexa = fmt.Sprint(row.Alexa)
		}
		fmt.Fprintf(&b, "  %-22s %9.1f %6.1f %6d %7d %7s %9s\n",
			row.Stat.AS.Name, row.Stat.MeanReplicas, row.Stat.StdReplicas, row.Stat.IP24s, row.OpenPorts, caida, alexa)
	}
	fmt.Fprintf(&b, "  geo-vs-IP/24 footprint Pearson correlation: %.2f (paper 0.35)\n", r.FootprintCorrelation)
	return b.String()
}

// Fig11Result is the AS-category breakdown, sorted by share descending
// (category name as tie-break).
type Fig11Result struct {
	Breakdown []analysis.CategoryShare
}

// Share looks up one category's share (zero when absent).
func (r Fig11Result) Share(cat string) float64 {
	for _, cs := range r.Breakdown {
		if cs.Category == cat {
			return cs.Share
		}
	}
	return 0
}

// PaperFig11 approximates the Fig. 11 bars (first category only, top-100).
var PaperFig11 = map[string]float64{
	"DNS": 0.33, "CDN": 0.18, "Cloud": 0.17, "ISP": 0.10,
	"Security": 0.04, "Social": 0.03, "Unknown": 0.07, "Other": 0.08,
}

// Fig11 computes the category shares of the detected >=5-replica ASes.
func (l *Lab) Fig11() Fig11Result {
	top := analysis.FilterMinReplicas(l.Findings, 5)
	return Fig11Result{Breakdown: analysis.CategoryBreakdown(top, l.World.Registry)}
}

// Report renders the breakdown.
func (r Fig11Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11 - AS category breakdown (measured %% | paper %%)\n")
	for _, cat := range []string{"DNS", "CDN", "Cloud", "ISP", "Security", "Social", "Unknown", "Other"} {
		fmt.Fprintf(&b, "  %-9s %5.1f | %5.1f\n", cat, 100*r.Share(cat), 100*PaperFig11[cat])
	}
	return b.String()
}

// Fig12Result is the replicas-per-/24 distribution, per census and
// combined.
type Fig12Result struct {
	// PerCensusCounts[i] is the number of anycast /24s detected by
	// census i alone.
	PerCensusCounts []int
	CombinedCount   int
	// CombinationGain is CombinedCount minus the mean individual count
	// (paper: ~200).
	CombinationGain float64
	// CombinedCDF is the CDF of geographically distinct replicas per
	// /24 for the combination.
	CombinedCDF    []stats.Point
	MedianReplicas float64
	MaxReplicas    int
}

// Fig12 analyzes each census individually, re-probed into a campaign of
// its own, and the combination.
func (l *Lab) Fig12() Fig12Result {
	res := Fig12Result{CombinedCount: len(l.Findings)}
	for i := range l.Rounds {
		res.PerCensusCounts = append(res.PerCensusCounts, len(l.singleCensus(l.roundVPs(i), uint64(i+1))))
	}
	var mean float64
	for _, n := range res.PerCensusCounts {
		mean += float64(n)
	}
	mean /= float64(len(res.PerCensusCounts))
	res.CombinationGain = float64(res.CombinedCount) - mean

	counts := analysis.ReplicasPerPrefix(l.Findings)
	res.CombinedCDF = stats.ECDF(counts)
	res.MedianReplicas = stats.Median(counts)
	_, mx := stats.MinMax(counts)
	res.MaxReplicas = int(mx)
	return res
}

// Report renders the distribution summary.
func (r Fig12Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12 - geographically distinct replicas per /24\n")
	fmt.Fprintf(&b, "  per-census anycast /24s: %v   combined: %d\n", r.PerCensusCounts, r.CombinedCount)
	fmt.Fprintf(&b, "  combination gain: +%.0f /24s over the average census (paper ~+200)\n", r.CombinationGain)
	fmt.Fprintf(&b, "  median replicas per /24: %.0f, max %d (paper x-axis 2..25+)\n", r.MedianReplicas, r.MaxReplicas)
	return b.String()
}

// Fig13Result is the anycast-/24s-per-AS distribution.
type Fig13Result struct {
	CDF            []stats.Point
	SingletonShare float64 // fraction of ASes with exactly one /24
	Named          map[string]int
}

// PaperFig13 records the named footprints of Fig. 13 / Sec. 4.2.
var PaperFig13 = map[string]int{
	"CLOUDFLARENET,US":     328,
	"GOOGLE,US":            102,
	"EDGECAST,US":          37,
	"PROLEXIC,US":          21,
	"APPLE-ENGINEERING,US": 6,
	"TWITTER-NETWORK,US":   3,
	"LEVEL3,US":            2,
	"LINKEDIN,US":          1,
}

// Fig13 computes the per-AS footprint distribution from the census.
func (l *Lab) Fig13() Fig13Result {
	xs := analysis.SubnetsPerAS(l.Findings)
	res := Fig13Result{
		CDF:            stats.ECDF(xs),
		SingletonShare: stats.FractionAtMost(xs, 1),
		Named:          map[string]int{},
	}
	byASN := map[int]int{}
	for _, f := range l.Findings {
		byASN[f.ASN]++
	}
	for name := range PaperFig13 {
		as := l.World.Registry.MustByName(name)
		res.Named[name] = byASN[as.ASN]
	}
	return res
}

// Report renders the footprint distribution.
func (r Fig13Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13 - anycast /24s per AS\n")
	fmt.Fprintf(&b, "  ASes with exactly one /24: %.0f%% (paper ~50%%)\n", 100*r.SingletonShare)
	for _, name := range []string{"CLOUDFLARENET,US", "GOOGLE,US", "EDGECAST,US", "PROLEXIC,US", "APPLE-ENGINEERING,US", "TWITTER-NETWORK,US", "LEVEL3,US", "LINKEDIN,US"} {
		fmt.Fprintf(&b, "  %-22s measured %3d | paper %3d\n", name, r.Named[name], PaperFig13[name])
	}
	return b.String()
}
