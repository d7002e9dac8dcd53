package experiments

import (
	"fmt"
	"strings"

	"anycastmap/internal/analysis"
	"anycastmap/internal/netsim"
	"anycastmap/internal/portscan"
	"anycastmap/internal/stats"
)

// Portscan returns the lab's Sec. 4.3 campaign, run on first use: every
// detected /24 of the >=5-replica ASes, one representative each, full 2^16
// TCP port space from one vantage point.
func (l *Lab) Portscan() *portscan.Campaign { return l.portscan() }

// scan runs the lab's portscan campaign; NewLab memoizes it per lab.
func (l *Lab) scan() *portscan.Campaign {
	top := analysis.FilterMinReplicas(l.Findings, 5)
	var targets []netsim.IP
	for _, f := range top {
		if ip, ok := l.World.Representative(f.Prefix); ok {
			targets = append(targets, ip)
		}
	}
	return portscan.Scan(l.World, l.PL.VPs()[0], targets, portscan.Config{Round: 1})
}

// Fig14Result is the portscan statistics header plus the top-10 port bars.
type Fig14Result struct {
	Summary     analysis.ScanSummary
	TopByAS     []analysis.PortCount
	TopByPrefix []analysis.PortCount
}

// PaperFig14 records the campaign statistics the paper reports.
var PaperFig14 = struct {
	IPs, ASes, Ports, SSL, WellKnown, Software int
}{812, 81, 10499, 185, 457, 30}

// Fig14 summarizes the portscan campaign.
func (l *Lab) Fig14() Fig14Result {
	camp := l.Portscan()
	return Fig14Result{
		Summary:     analysis.SummarizeScan(camp, l.Table),
		TopByAS:     analysis.TopPortsByAS(camp, l.Table, 10),
		TopByPrefix: analysis.TopPortsByPrefix(camp, 10),
	}
}

// Report renders the campaign statistics.
func (r Fig14Result) Report() string {
	var b strings.Builder
	s := r.Summary
	fmt.Fprintf(&b, "Fig. 14 - nmap portscan statistics (measured | paper)\n")
	fmt.Fprintf(&b, "  IPs/32 responding %4d | %d   ASes %3d | %d   ports %5d | %d\n",
		s.RespondingIPs, PaperFig14.IPs, s.ASes, PaperFig14.ASes, s.UnionPorts, PaperFig14.Ports)
	fmt.Fprintf(&b, "  SSL %4d | %d   well-known %4d | %d   software %3d | %d\n",
		s.UnionSSL, PaperFig14.SSL, s.UnionWellKnown, PaperFig14.WellKnown, s.Software, PaperFig14.Software)
	fmt.Fprintf(&b, "  top ports by AS:     ")
	for _, pc := range r.TopByAS {
		fmt.Fprintf(&b, " %d(%d)", pc.Port, pc.Count)
	}
	fmt.Fprintf(&b, "\n  top ports by /24:    ")
	for _, pc := range r.TopByPrefix {
		fmt.Fprintf(&b, " %d(%d)", pc.Port, pc.Count)
	}
	fmt.Fprintf(&b, "\n  (paper per-AS top: 53 80 443 179 22 8080 8083 3306 1935 5252;"+
		" per-/24 dominated by CloudFlare's 2xxx range)\n")
	return b.String()
}

// Fig15Result is the open-ports-per-AS CCDF plus named extremes.
type Fig15Result struct {
	CCDF  []stats.Point
	Named map[string]int
	// AtLeastOne / AtLeastFive are AS fractions over the scanned top-100
	// set.
	AtLeastOne, AtLeastFive float64
}

// PaperFig15 records the named per-AS port counts.
var PaperFig15 = map[string]int{
	"OVH,FR":           10148,
	"INCAPSULA,US":     313,
	"CLOUDFLARENET,US": 22,
	"GOOGLE,US":        9,
	"EDGECAST,US":      5,
}

// Fig15 computes the per-AS port-count distribution.
func (l *Lab) Fig15() Fig15Result {
	sum := analysis.SummarizeScan(l.Portscan(), l.Table)
	res := Fig15Result{
		CCDF:  analysis.PortsCCDF(sum),
		Named: map[string]int{},
	}
	for name := range PaperFig15 {
		as := l.World.Registry.MustByName(name)
		res.Named[name] = sum.PortsPerAS[as.ASN]
	}
	scannedASes := map[int]bool{}
	for _, f := range analysis.FilterMinReplicas(l.Findings, 5) {
		scannedASes[f.ASN] = true
	}
	if n := len(scannedASes); n > 0 {
		ge1, ge5 := 0, 0
		for asn := range scannedASes {
			if sum.PortsPerAS[asn] >= 1 {
				ge1++
			}
			if sum.PortsPerAS[asn] >= 5 {
				ge5++
			}
		}
		res.AtLeastOne = float64(ge1) / float64(n)
		res.AtLeastFive = float64(ge5) / float64(n)
	}
	return res
}

// Report renders the CCDF summary.
func (r Fig15Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 15 - CCDF of open TCP ports per AS\n")
	fmt.Fprintf(&b, "  ASes with >=1 open port: %.0f%% (paper ~81/100)   >=5: %.0f%% (paper ~10%%)\n",
		100*r.AtLeastOne, 100*r.AtLeastFive)
	for _, name := range []string{"OVH,FR", "INCAPSULA,US", "CLOUDFLARENET,US", "GOOGLE,US", "EDGECAST,US"} {
		fmt.Fprintf(&b, "  %-18s measured %5d | paper %5d\n", name, r.Named[name], PaperFig15[name])
	}
	return b.String()
}

// Fig16Result is the software breakdown.
type Fig16Result struct {
	Breakdown []analysis.SoftwareCount
	// UnicastRankSpearman correlates the measured web-server popularity
	// with the unicast-world w3techs ranking (paper: 0.38, low).
	UnicastRankSpearman float64
}

// unicastWebRank approximates the w3techs web-server popularity ranking of
// the unicast web (rank 1 = most popular).
var unicastWebRank = map[string]int{
	"Apache httpd":     1,
	"nginx":            2,
	"Microsoft IIS":    3,
	"cPanel httpd":     4,
	"Varnish":          5,
	"Apache Tomcat":    6,
	"Google httpd":     7,
	"lighttpd":         8,
	"thttpd":           9,
	"cloudflare-nginx": 10,
	"ECAcc/ECS":        11,
	"instart/160":      12,
	"bitasicv2":        13,
	"ECD":              14,
	"CFS 0213":         15,
}

// Fig16 fingerprints the anycast software landscape.
func (l *Lab) Fig16() Fig16Result {
	bd := analysis.SoftwareBreakdown(l.Portscan(), l.Table)
	// Correlate the anycast web-server popularity with the unicast
	// ranking: pair (measured AS count, unicast rank) per web server.
	var measured, unicast []float64
	for _, sc := range bd {
		if sc.Category != "Web" {
			continue
		}
		rank, ok := unicastWebRank[sc.Software]
		if !ok {
			continue
		}
		// Higher AS count = more popular; unicast rank 1 = most popular,
		// so negate the rank to orient both the same way.
		measured = append(measured, float64(sc.ASes))
		unicast = append(unicast, float64(-rank))
	}
	return Fig16Result{
		Breakdown:           bd,
		UnicastRankSpearman: statsSpearman(measured, unicast),
	}
}

func statsSpearman(a, b []float64) float64 { return stats.Spearman(a, b) }

// Report renders the software breakdown.
func (r Fig16Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 16 - software on anycast replicas (%d implementations; paper 30)\n", len(r.Breakdown))
	cur := ""
	for _, sc := range r.Breakdown {
		if sc.Category != cur {
			cur = sc.Category
			fmt.Fprintf(&b, "  [%s]\n", cur)
		}
		fmt.Fprintf(&b, "    %-18s %3d ASes\n", sc.Software, sc.ASes)
	}
	fmt.Fprintf(&b, "  web-server popularity vs unicast ranking (Spearman): %.2f (paper 0.38)\n", r.UnicastRankSpearman)
	return b.String()
}
